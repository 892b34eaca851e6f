#include "gbis/harness/fault_injection.hpp"

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string_view>
#include <thread>

#include "gbis/harness/shutdown.hpp"

namespace gbis {

namespace {

constexpr const char* kKindNames[kNumFaultKinds] = {"",     "throw", "hang",
                                                    "stop", "oom",   "crash"};
constexpr const char* kSiteNames[kNumFaultSites] = {"trial", "req", "solve",
                                                    "batch"};

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  return kKindNames[static_cast<std::size_t>(kind)];
}

const char* fault_site_name(FaultSite site) {
  return kSiteNames[static_cast<std::size_t>(site)];
}

FaultPlan FaultPlan::parse(const std::string& spec,
                           const FaultGrammar& grammar) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    const auto bad = [&grammar, &entry] {
      return std::invalid_argument(std::string(grammar.label) + " entry \"" +
                                   entry + "\" does not match " +
                                   grammar.usage);
    };

    const std::size_t at = entry.find('@');
    const std::size_t colon =
        at == std::string::npos ? at : entry.find(':', at);
    if (colon == std::string::npos) throw bad();
    const std::string_view kind_text(entry.data(), at);
    const std::string_view site_text(entry.data() + at + 1, colon - at - 1);
    int kind = 1;
    while (kind < kNumFaultKinds && kind_text != kKindNames[kind]) ++kind;
    int site = 0;
    while (site < kNumFaultSites && site_text != kSiteNames[site]) ++site;
    if (kind == kNumFaultKinds || site == kNumFaultSites ||
        !grammar.accepts(static_cast<FaultKind>(kind),
                         static_cast<FaultSite>(site))) {
      throw bad();
    }

    const std::string id_text = entry.substr(colon + 1);
    if (id_text.empty() ||
        id_text.find_first_not_of("0123456789") != std::string::npos) {
      throw bad();
    }
    const std::uint64_t id = std::strtoull(id_text.c_str(), nullptr, 10);
    plan.by_site_[{static_cast<FaultSite>(site), id}] =
        static_cast<FaultKind>(kind);
  }
  return plan;
}

FaultPlan FaultPlan::from_env(const char* var, const FaultGrammar& grammar) {
  const char* raw = std::getenv(var);
  if (raw == nullptr || *raw == '\0') return {};
  try {
    return parse(raw, grammar);
  } catch (const std::invalid_argument& error) {
    std::cerr << "gbis: ignoring " << var << "=\"" << raw << "\" ("
              << error.what() << ")\n";
    return {};
  }
}

FaultKind FaultPlan::at(FaultSite site, std::uint64_t ordinal) const {
  const auto it = by_site_.find({site, ordinal});
  return it == by_site_.end() ? FaultKind::kNone : it->second;
}

void maybe_inject_fault(const FaultPlan* plan, FaultSite site,
                        std::uint64_t ordinal, const Deadline& deadline,
                        const std::atomic<bool>* stop) {
  if (plan == nullptr || plan->empty()) return;
  const FaultKind kind = plan->at(site, ordinal);
  if (kind == FaultKind::kNone) return;
  const std::string what = std::string("injected fault: ") +
                           fault_kind_name(kind) + "@" +
                           fault_site_name(site) + ":" +
                           std::to_string(ordinal);
  switch (kind) {
    case FaultKind::kNone:
      return;
    case FaultKind::kThrow:
      throw InjectedFault(what);
    case FaultKind::kOom:
      throw std::bad_alloc();
    case FaultKind::kHang:
      // A cooperative hang: exactly what a stuck SA schedule looks like
      // from outside. Rescued by the deadline or a shutdown/stop
      // request; with neither it hangs for real.
      for (;;) {
        if (deadline.expired()) {
          throw DeadlineExceeded(what + (site == FaultSite::kTrial
                                             ? " hit the trial deadline"
                                             : " hit the request deadline"));
        }
        if (shutdown_requested() ||
            (stop != nullptr && stop->load(std::memory_order_acquire))) {
          throw DeadlineExceeded(what + " aborted by shutdown");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    case FaultKind::kStop:
      request_shutdown();
      return;
    case FaultKind::kCrash:
      // Die exactly like an external kill -9 — no unwinding, no
      // flushing, no atexit. The one thing that does survive is the
      // flight recorder's black box: the dump hook is async-signal-safe,
      // so firing it here models a fatal-signal handler getting its
      // last write out.
      trigger_flight_dump();
      std::raise(SIGKILL);
      return;
  }
}

}  // namespace gbis
