#include "gbis/methods/registry.hpp"

#include <array>

namespace gbis {

namespace {

// Rows are indexed by the Method enum value — keep both in lockstep
// (method_registry() asserts the correspondence in debug builds).
constexpr std::array<MethodInfo, 12> kRegistry = {{
    {Method::kKl, "kl", "KL", QualityTier::kBest, Counter::kSvcSolveByKl},
    {Method::kSa, "sa", "SA", QualityTier::kBest, Counter::kSvcSolveBySa},
    {Method::kCkl, "ckl", "CKL", QualityTier::kBalanced,
     Counter::kSvcSolveByCkl},
    {Method::kCsa, "csa", "CSA", QualityTier::kBest, Counter::kSvcSolveByCsa},
    {Method::kFm, "fm", "FM", QualityTier::kBest, Counter::kSvcSolveByOther},
    {Method::kCfm, "cfm", "CFM", QualityTier::kBest, Counter::kSvcSolveByOther},
    {Method::kMultilevelKl, "mlkl", "MLKL", QualityTier::kBalanced,
     Counter::kSvcSolveByMlkl},
    {Method::kGreedy, "greedy", "Greedy", QualityTier::kFast,
     Counter::kSvcSolveByOther},
    {Method::kSpectral, "spectral", "Spectral", QualityTier::kBest,
     Counter::kSvcSolveByOther},
    {Method::kRandom, "random", "Random", QualityTier::kFast,
     Counter::kSvcSolveByOther},
    {Method::kPathOpt, "path", "PO", QualityTier::kBalanced,
     Counter::kSvcSolveByPath},
    {Method::kGreedyHc, "greedy_hc", "GreedyHC", QualityTier::kFast,
     Counter::kSvcSolveByGreedyHc},
}};

// The ladder rung portfolios (quality_portfolio). kBest preserves the
// historical dispatch order — CKL, CSA, KL, SA, MLKL — and appends
// path optimization, so a pre-ladder "auto" request with budget <= 5
// runs exactly the trials it always ran.
constexpr std::array<Method, 1> kFastPortfolio = {Method::kGreedyHc};
constexpr std::array<Method, 3> kBalancedPortfolio = {
    Method::kCkl, Method::kPathOpt, Method::kMultilevelKl};
constexpr std::array<Method, 6> kBestPortfolio = {
    Method::kCkl, Method::kCsa, Method::kKl,
    Method::kSa,  Method::kMultilevelKl, Method::kPathOpt};

}  // namespace

const char* quality_tier_name(QualityTier tier) {
  switch (tier) {
    case QualityTier::kFast: return "fast";
    case QualityTier::kBalanced: return "balanced";
    case QualityTier::kBest: return "best";
  }
  return "best";
}

bool quality_tier_from_name(const std::string& name, QualityTier& out) {
  if (name == "fast") out = QualityTier::kFast;
  else if (name == "balanced") out = QualityTier::kBalanced;
  else if (name == "best") out = QualityTier::kBest;
  else return false;
  return true;
}

std::span<const MethodInfo> method_registry() { return kRegistry; }

const MethodInfo& method_info(Method method) {
  return kRegistry[static_cast<std::size_t>(method)];
}

const MethodInfo* method_info_by_name(const std::string& name) {
  for (const MethodInfo& info : kRegistry) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

std::span<const Method> quality_portfolio(QualityTier tier) {
  switch (tier) {
    case QualityTier::kFast: return kFastPortfolio;
    case QualityTier::kBalanced: return kBalancedPortfolio;
    case QualityTier::kBest: return kBestPortfolio;
  }
  return kBestPortfolio;
}

}  // namespace gbis
