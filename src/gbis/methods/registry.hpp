// Method registry: every solver the harness can run, described as
// data — scripting/display names, the quality tier it serves, and the
// per-method service counter — instead of hard-coded switch branches
// scattered across the CLI, the policy, and the experiment drivers.
// `harness/runner` name lookups, `svc/policy`'s ladder portfolios, and
// the stats/Prometheus `solve_by_method` surface all read this one
// table, so adding a method is one row here plus its `run_one_start`
// case.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "gbis/harness/runner.hpp"
#include "gbis/obs/metrics.hpp"

namespace gbis {

/// Quality tier of the service's quality-vs-latency ladder. The tier
/// names are protocol vocabulary (the request "quality" enum), so
/// they are append-only stable API like method names.
enum class QualityTier : std::uint8_t {
  kFast = 0,  ///< microsecond rung: bounded-latency construction
  kBalanced,  ///< milliseconds: one pass of the strong refiners
  kBest,      ///< the full racing portfolio (the pre-ladder default)
};
inline constexpr std::size_t kNumQualityTiers = 3;

/// Protocol name ("fast" / "balanced" / "best").
const char* quality_tier_name(QualityTier tier);

/// Reverse lookup for protocol parsing; false when `name` is unknown
/// (present-but-invalid quality is a parse error, never a default).
bool quality_tier_from_name(const std::string& name, QualityTier& out);

/// One registry row.
struct MethodInfo {
  Method method = Method::kKl;
  const char* name = "";          ///< scripting name ("kl", "path", ...)
  const char* display_name = "";  ///< table/response name ("KL", "PO", ...)
  /// Cheapest ladder rung whose portfolio races this method.
  QualityTier tier = QualityTier::kBest;
  /// Service counter bumped when this method wins an ok cold solve
  /// ("svc.solve_by.*"; methods outside the ladder share
  /// kSvcSolveByOther).
  Counter solve_counter = Counter::kSvcSolveByOther;
};

/// All registered methods, in Method enum order (so
/// `method_registry()[static_cast<size_t>(m)]` is m's row).
std::span<const MethodInfo> method_registry();

/// Registry row for `method`.
const MethodInfo& method_info(Method method);

/// Lookup by scripting name; nullptr when unknown.
const MethodInfo* method_info_by_name(const std::string& name);

/// The racing portfolio of one ladder rung: trial i of a request runs
/// portfolio[i % size]. kBest is the historical 5-method service
/// portfolio with path optimization appended, so pre-ladder request
/// streams (budget <= 5) replay byte-identically.
std::span<const Method> quality_portfolio(QualityTier tier);

}  // namespace gbis
