// Deterministic fault injection. Every failure path gbis claims to
// survive — a throwing trial or request, a hung one, a shutdown
// mid-campaign, an allocation failure, a kill -9 mid-serve — can be
// triggered at an exact (site, ordinal), so the tests exercise them
// reproducibly instead of trusting them on faith.
//
// One spec grammar serves campaigns (GBIS_FAULTS) and `gbis serve`
// (GBIS_SVC_FAULTS):
//
//   spec    := entry ("," entry)*
//   entry   := kind "@" site ":" ordinal
//   ordinal := unsigned decimal below 2^64
//
// No entry may be empty, so a leading, doubled or trailing comma is
// malformed; only the empty spec itself is valid (no faults).
//
// e.g.  GBIS_FAULTS=throw@trial:17,hang@trial:23
//       GBIS_SVC_FAULTS=throw@req:3,crash@batch:2
//
// Each mode accepts its own kinds and sites (its FaultGrammar):
//
//   mode      kinds                    sites
//   campaign  throw hang stop          trial
//   service   throw hang oom crash     req solve batch
//
//   site trial — the dense trial id of the enumeration, checked as
//                that trial starts
//   site req   — the request seq (the access-log "seq"), checked as
//                that request's cold solve starts
//   site solve — the service-lifetime cold-solve ordinal (leaders
//                only; hits/coalesced followers don't count)
//   site batch — counts non-empty process_batch calls, checked at
//                batch entry before any work
//
//   throw — raise InjectedFault (a trial -> status `failed`; a request
//           -> a stable "internal:" response, the injected text goes
//           to stderr + the access log)
//   hang  — block until the deadline expires (-> `timed_out` /
//           "deadline") or a shutdown is requested; with neither it
//           hangs for real, which is the point
//   stop  — call request_shutdown(), as if SIGTERM had arrived at that
//           moment; the trial itself runs normally
//   oom   — raise std::bad_alloc (-> "internal: out of memory")
//   crash — raise(SIGKILL): the crash-safety chaos hook. The process
//           dies exactly like an external kill -9; batches before the
//           ordinal are fully journaled and flushed.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "gbis/util/deadline.hpp"

namespace gbis {

/// What a planned fault does at its site.
enum class FaultKind : std::uint8_t {
  kNone, kThrow, kHang, kStop, kOom, kCrash
};
inline constexpr int kNumFaultKinds = 6;  ///< kNone included

/// Where a planned fault fires.
enum class FaultSite : std::uint8_t { kTrial, kReq, kSolve, kBatch };
inline constexpr int kNumFaultSites = 4;

/// Spec names: "throw", "hang", ... ("" for kNone); "trial", "req", ...
const char* fault_kind_name(FaultKind kind);
const char* fault_site_name(FaultSite site);

/// One bit per kind or site, for FaultGrammar's sets.
constexpr unsigned fault_bits(auto... values) {
  return ((1u << static_cast<unsigned>(values)) | ...);
}

/// The kinds and sites one mode accepts, and the words of its parse
/// error: `<label> entry "<entry>" does not match <usage>`.
struct FaultGrammar {
  const char* label;
  const char* usage;
  unsigned kinds;  ///< fault_bits of the accepted kinds
  unsigned sites;  ///< fault_bits of the accepted sites

  bool accepts(FaultKind kind, FaultSite site) const {
    return (kinds & fault_bits(kind)) != 0 && (sites & fault_bits(site)) != 0;
  }
};

inline constexpr FaultGrammar kCampaignFaults{
    "fault spec", "<throw|hang|stop>@trial:<id>",
    fault_bits(FaultKind::kThrow, FaultKind::kHang, FaultKind::kStop),
    fault_bits(FaultSite::kTrial)};
inline constexpr FaultGrammar kServiceFaults{
    "service fault spec", "<throw|hang|oom|crash>@<req|solve|batch>:<n>",
    fault_bits(FaultKind::kThrow, FaultKind::kHang, FaultKind::kOom,
               FaultKind::kCrash),
    fault_bits(FaultSite::kReq, FaultSite::kSolve, FaultSite::kBatch)};

/// The exception an injected `throw` raises.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& what)
      : std::runtime_error(what) {}
};

/// An immutable (site, ordinal) -> kind map parsed from a spec string.
class FaultPlan {
 public:
  /// No faults.
  FaultPlan() = default;

  /// Parses the grammar above, restricted to `grammar`'s kinds and
  /// sites; throws std::invalid_argument naming the offending entry on
  /// any deviation. An empty spec is an empty plan.
  static FaultPlan parse(const std::string& spec, const FaultGrammar& grammar);

  /// Reads the environment variable `var`. A malformed value warns on
  /// stderr (naming the variable and the rejected text, like the other
  /// GBIS_* knobs) and yields an empty plan.
  static FaultPlan from_env(const char* var, const FaultGrammar& grammar);

  bool empty() const { return by_site_.empty(); }
  std::size_t size() const { return by_site_.size(); }

  /// The fault planned for `ordinal` at `site` (kNone when unplanned).
  FaultKind at(FaultSite site, std::uint64_t ordinal) const;

 private:
  std::map<std::pair<FaultSite, std::uint64_t>, FaultKind> by_site_;
};

/// The injection point, called as `ordinal` reaches `site`. Returns at
/// once for a null or empty plan. `deadline` is what an injected hang
/// spins against (the trial's or the request's); `stop` (optional)
/// also rescues a hang, mirroring the service's graceful-shutdown
/// path.
void maybe_inject_fault(const FaultPlan* plan, FaultSite site,
                        std::uint64_t ordinal, const Deadline& deadline,
                        const std::atomic<bool>* stop = nullptr);

}  // namespace gbis
