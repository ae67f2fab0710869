//===- FaultInjector.h - Deterministic fault injection ----------*- C++ -*-===//
///
/// \file
/// Deterministic fault injection for robustness testing. A FaultInjector is
/// configured from a spec string
///
///   <site>[,<site>...]@<rate>#<seed>
///
/// e.g. `parse,alloc@50#42` (fail parse and alloc probes 50% of the time,
/// seed 42) or `all@100#1` (fail every probe at every site). Valid sites are
/// `parse`, `analysis`, `cache`, `alloc`; `all` expands to every site.
///
/// Whether a given probe fails is a pure function of (seed, site, item):
/// `fnv1a(seed, site, item) % 100 < rate`. There is no global counter and no
/// hidden state, so a probe fires identically across runs, across thread
/// interleavings, and under `--jobs N` for any N — which is what lets CI
/// assert exact failed[] reports.
///
/// The batch pipeline's job stages are the only probe sites: each stage
/// probes the site named after it on entry (JobRun::stage), and the
/// analysis stage probes `cache` before each cache lookup. A disabled
/// injector (default) makes every probe a no-op. The spec comes from
/// `--fault-inject` or the NPRAL_FAULT_INJECT environment variable.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_HARDEN_FAULTINJECTOR_H
#define NPRAL_HARDEN_FAULTINJECTOR_H

#include "support/Status.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace npral {

class FaultInjector {
public:
  /// A disabled injector: every probe succeeds.
  FaultInjector() = default;

  /// Parse a spec string (see file comment). Fails with ParseError on
  /// malformed specs, unknown sites, or a rate outside [0, 100].
  static ErrorOr<FaultInjector> parse(const std::string &Spec);

  /// Build from the NPRAL_FAULT_INJECT environment variable; disabled when
  /// the variable is unset or empty. A malformed value is a fatal error —
  /// silently ignoring it would make a CI matrix pass vacuously.
  static FaultInjector fromEnv();

  /// The canonical site names, in probe order.
  static const std::vector<std::string> &allSites();

  bool enabled() const { return Rate > 0 && !Sites.empty(); }

  /// True when the probe at \p Site for \p Item (e.g. an input path) should
  /// fail. Deterministic in (seed, site, item).
  bool shouldFail(std::string_view Site, std::string_view Item) const;

  /// Status-flavoured probe: an error with StatusCode::FaultInjected when
  /// shouldFail, success otherwise.
  Status check(std::string_view Site, std::string_view Item) const;

  int rate() const { return Rate; }
  uint64_t seed() const { return Seed; }
  const std::vector<std::string> &sites() const { return Sites; }

private:
  std::vector<std::string> Sites; ///< Empty = disabled.
  int Rate = 0;                   ///< Percent of probes that fail, 0-100.
  uint64_t Seed = 0;
};

} // namespace npral

#endif // NPRAL_HARDEN_FAULTINJECTOR_H
