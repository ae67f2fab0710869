//===- TraceEngine.cpp ----------------------------------------------------===//

#include "trace/TraceEngine.h"

#include "support/StringUtils.h"

#include <chrono>
#include <fstream>

using namespace npral;

namespace {

int64_t steadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Thread-local handle into the engine: valid while the generation matches.
struct LocalHandle {
  uint64_t Gen = 0;
  TraceEngine::Buffer *Buf = nullptr;
};

thread_local LocalHandle Local;

} // namespace

TraceEngine::TraceEngine() : EpochNs(steadyNowNs()) {}

TraceEngine &TraceEngine::global() {
  static TraceEngine Engine;
  return Engine;
}

int64_t TraceEngine::now() const { return steadyNowNs() - EpochNs; }

TraceEngine::Buffer &TraceEngine::localBuffer() {
  const uint64_t Gen = Generation.load(std::memory_order_acquire);
  if (Local.Gen == Gen && Local.Buf)
    return *Local.Buf;
  std::lock_guard<std::mutex> Lock(Mutex);
  auto Owned = std::make_unique<Buffer>();
  Owned->Tid = static_cast<int>(Buffers.size());
  Buffers.push_back(std::move(Owned));
  Local.Gen = Gen;
  Local.Buf = Buffers.back().get();
  return *Local.Buf;
}

void TraceEngine::append(Buffer &B, char Ph, std::string_view Cat,
                         std::string_view Name, TraceArgs Args) {
  TraceEvent E;
  E.Ph = Ph;
  E.TsNs = now();
  E.Name = std::string(Name);
  E.Cat = std::string(Cat);
  E.Args = std::move(Args);
  B.Events.push_back(std::move(E));
}

void TraceEngine::instant(std::string_view Cat, std::string_view Name,
                          TraceArgs Args) {
  if (!isEnabled())
    return;
  append(localBuffer(), 'i', Cat, Name, std::move(Args));
}

int64_t TraceEngine::eventCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  int64_t N = 0;
  for (const std::unique_ptr<Buffer> &B : Buffers)
    N += static_cast<int64_t>(B->Events.size());
  return N;
}

void TraceEngine::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Buffers.clear();
  Generation.fetch_add(1, std::memory_order_acq_rel);
  EpochNs = steadyNowNs();
}

void TraceEngine::exportJSON(std::ostream &OS) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  OS << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
  bool First = true;
  for (const std::unique_ptr<Buffer> &B : Buffers) {
    for (const TraceEvent &E : B->Events) {
      OS << (First ? "\n    {" : ",\n    {");
      First = false;
      OS << "\"ph\": \"" << E.Ph << "\", ";
      // Chrome's ts unit is microseconds; keep the nanosecond precision in
      // the fraction.
      OS << formatString("\"ts\": %lld.%03d, ",
                         static_cast<long long>(E.TsNs / 1000),
                         static_cast<int>(E.TsNs % 1000));
      OS << "\"pid\": 1, \"tid\": " << B->Tid << ", ";
      OS << "\"name\": ";
      writeJSONString(OS, E.Name);
      OS << ", \"cat\": ";
      writeJSONString(OS, E.Cat);
      if (E.Ph == 'i')
        OS << ", \"s\": \"t\"";
      if (!E.Args.empty()) {
        OS << ", \"args\": {";
        for (size_t I = 0; I < E.Args.size(); ++I) {
          if (I)
            OS << ", ";
          writeJSONString(OS, E.Args[I].first);
          OS << ": ";
          writeJSONString(OS, E.Args[I].second);
        }
        OS << "}";
      }
      OS << "}";
    }
  }
  OS << (First ? "]" : "\n  ]") << "\n}\n";
}

Status TraceEngine::writeFile(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return Status::error("cannot write trace file '" + Path + "'");
  exportJSON(Out);
  return Status::success();
}

TraceSpan::TraceSpan(std::string_view Cat, std::string_view Name,
                     TraceArgs Args) {
  TraceEngine &Engine = TraceEngine::global();
  if (!Engine.isEnabled())
    return;
  Gen = Engine.Generation.load(std::memory_order_acquire);
  Buf = &Engine.localBuffer();
  this->Name = std::string(Name);
  this->Cat = std::string(Cat);
  Engine.append(*Buf, 'B', this->Cat, this->Name, std::move(Args));
}

TraceSpan::~TraceSpan() {
  if (!Buf)
    return;
  TraceEngine &Engine = TraceEngine::global();
  // A clear() between construction and destruction destroyed the buffer;
  // dropping the end event keeps the new generation balanced.
  if (Engine.Generation.load(std::memory_order_acquire) != Gen)
    return;
  Engine.append(*Buf, 'E', Cat, Name, std::move(EndArgs));
}
