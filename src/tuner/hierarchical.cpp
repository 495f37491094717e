// The paper's Hot Spot Auto-tuner.
//
// Phase 1 ("structural"): sweep the structural groups — collector choice,
// tiered compilation, -server/-client, -Xmixed/-Xint/-Xcomp — one
// deviation from default at a time, then cross the strongly-interacting
// collector x JIT-mode pair. These choices decide which subtrees of the
// flag tree are even meaningful.
//
// Phase 2 ("subtree"): structural choices interact with the numeric flags
// they activate (a structure that looks best at default flag values is not
// always best once its subtree is tuned), so the descent runs on the top
// few structural candidates, splitting the phase budget. Within each, walk
// the hierarchy's *active* nodes and coordinate-descend per flag with a
// geometric line search — flags like CompileThreshold have optima an order
// of magnitude from their defaults.
//
// Phase 3 ("refine"): spend the remaining budget hill-climbing with
// multi-flag mutations over the active flags, restarting from the
// incumbent on stagnation.
//
// Ask/tell port: each stage's evaluations go out as a speculative batch
// (the structural sweep fills the whole scheduler window at once), with a
// barrier — batch queue drained and every result told — before state that
// depends on the batch (incumbent, descent base, line-search direction) is
// read. Line searches extend in speculative chunks: a rejected step marks
// the ray stopped and later in-flight steps are ignored. All budget-phase
// arithmetic runs on the committed ledger, so the trajectory is identical
// whatever eval_threads is.
//
// The two ablation switches reproduce bench_f7: `structural_first=false`
// skips phase 1 (structure only changes through rare refinement moves) and
// `gate_subtrees=false` tunes every node whether its gate holds or not —
// the flat search the paper's hierarchy exists to avoid.
#include "tuner/algorithms.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <utility>

namespace jat {

namespace {

/// Budget fractions: the structural phase ends at kStructuralBudgetFrac,
/// the subtree descent kSubtreeBudgetFrac later; refinement takes the rest.
constexpr double kStructuralBudgetFrac = 0.15;
constexpr double kSubtreeBudgetFrac = 0.55;
constexpr int kValuesPerFlag = 4;  ///< candidates per non-numeric flag

/// Signature of a configuration's structural choices, for dedup.
std::string structure_signature(const FlagHierarchy& hierarchy,
                                const Configuration& config) {
  std::string sig;
  for (const auto& group : hierarchy.groups()) {
    sig += std::to_string(group.current_option(config));
    sig += '/';
  }
  return sig;
}

}  // namespace

struct HierarchicalTuner::Impl {
  /// Where the stage machine resumes at the next batch barrier.
  enum class Stage {
    kStructSingles,  // build the one-deviation sweep
    kStructCross,    // build the gc x jit cross on the sweep's winner
    kBasePick,       // choose descent bases from structural results
    kBaseAnchor,     // (re-)measure the next base
    kAnchorDone,     // derive this base's descent flag order
    kFlagProbes,     // build the next flag's two-sided probe batch
    kProbesDone,     // maybe start a line search along the winning move
    kLineChunk,      // extend the line-search ray by another chunk
    kRefineEnter,    // switch to refinement hill climbing
    kRefine,         // steady-state: speculative mutations until exhaustion
  };
  /// How tell() interprets the observations of the current batch.
  enum class TellMode { kNone, kStructural, kAnchor, kProbe, kLine, kRefine };

  Stage stage = Stage::kStructSingles;
  TellMode tell_mode = TellMode::kNone;
  std::deque<Configuration> queue;  ///< built batch, not yet proposed
  std::size_t outstanding = 0;
  double queue_guard = 2.0;  ///< drop queued proposals past this phase frac

  bool structural_enabled = false;
  std::vector<std::pair<double, Configuration>> structural_results;
  double baseline_objective = std::numeric_limits<double>::infinity();

  std::vector<Configuration> bases;
  std::size_t base_index = 0;
  double slice_end = 1.0;

  Configuration current;
  double current_objective = std::numeric_limits<double>::infinity();
  std::vector<FlagId> descent_flags;
  std::size_t flag_cursor = 0;
  int pass = 0;

  FlagId active_flag = 0;
  FlagValue flag_before;

  double line_ratio = 1.0;
  int line_steps = 0;
  bool line_stopped = false;

  int stagnation = 0;

  explicit Impl(Configuration seed) : current(std::move(seed)) {}
};

HierarchicalTuner::HierarchicalTuner() : HierarchicalTuner(Options{}) {}
HierarchicalTuner::HierarchicalTuner(Options options) : options_(options) {}
HierarchicalTuner::~HierarchicalTuner() = default;

std::string HierarchicalTuner::name() const {
  if (!options_.gate_subtrees) return "hierarchical-ungated";
  if (!options_.structural_first) return "hierarchical-nostruct";
  return "hierarchical";
}

void HierarchicalTuner::begin(StrategyContext& ctx) {
  SearchStrategy::begin(ctx);
  impl_ = std::make_unique<Impl>(ctx.best_config());
  Impl& s = *impl_;
  s.structural_results.emplace_back(ctx.best_objective(), ctx.best_config());
  s.baseline_objective = ctx.best_objective();

  // Cost awareness: the session has already measured the default
  // configuration, so the budget's capacity in evaluations is known. When
  // it affords only a short search, structural exploration (which must pay
  // for -Xint-class disasters at the timeout cap) is not worth its slice;
  // all budget goes into descending on the default structure.
  const double spent_on_default =
      ctx.committed_spent() / ctx.budget_total();
  const double affordable_total_evals =
      spent_on_default > 0 ? 1.0 / spent_on_default : 1e9;
  s.structural_enabled =
      options_.structural_first && affordable_total_evals >= 200.0;
}

void HierarchicalTuner::ask(std::vector<Proposal>& out, std::size_t max) {
  Impl& s = *impl_;
  const FlagHierarchy& hierarchy = ctx().space().hierarchy();
  const FlagRegistry& registry = hierarchy.registry();
  const SimTime total = ctx().budget_total();

  auto phase_over = [&](double frac) {
    return ctx().exhausted() || ctx().committed_spent() >= total * frac;
  };

  // Builds the next speculative chunk of a geometric line search: follow
  // the accepted move's direction while the values stay in domain. A
  // rejected step stops the ray at tell time.
  auto build_line_chunk = [&] {
    const FlagSpec& spec = registry.spec(s.active_flag);
    std::int64_t value = s.current.get(s.active_flag).as_int();
    for (int i = 0; i < 4 && s.line_steps < 12; ++i) {
      const double next_raw = static_cast<double>(value) * s.line_ratio;
      const std::int64_t next =
          std::clamp(static_cast<std::int64_t>(next_raw), spec.int_domain.lo,
                     spec.int_domain.hi);
      if (next == value) break;
      Configuration candidate = s.current;
      candidate.set(s.active_flag, FlagValue(next));
      s.queue.push_back(std::move(candidate));
      ++s.line_steps;
      value = next;
    }
  };

  while (out.size() < max) {
    if (!s.queue.empty()) {
      if (phase_over(s.queue_guard)) {
        // The phase ran out under this batch: stop emitting it; the
        // already-dispatched remainder still barriers below.
        s.queue.clear();
        continue;
      }
      out.emplace_back(std::move(s.queue.front()));
      s.queue.pop_front();
      ++s.outstanding;
      continue;
    }
    if (s.outstanding > 0) return;  // batch barrier

    switch (s.stage) {
      case Impl::Stage::kStructSingles: {
        s.stage = Impl::Stage::kStructCross;
        if (!s.structural_enabled) break;
        ctx().set_phase("structural");
        // One deviation at a time first: a disastrous mode like -Xint
        // costs one timed-out measurement, not a whole cross product.
        const Configuration defaults(registry);
        for (const auto& group : hierarchy.groups()) {
          const int baseline = group.current_option(defaults);
          for (std::size_t option = 0; option < group.options.size();
               ++option) {
            if (static_cast<int>(option) == baseline) continue;
            Configuration candidate(registry);
            group.apply(candidate, option);
            s.queue.push_back(std::move(candidate));
          }
        }
        s.tell_mode = Impl::TellMode::kStructural;
        s.queue_guard = kStructuralBudgetFrac;
        break;
      }
      case Impl::Stage::kStructCross: {
        s.stage = Impl::Stage::kBasePick;
        if (!s.structural_enabled || phase_over(kStructuralBudgetFrac)) {
          break;
        }
        // The collector x JIT-mode cross on the best single deviation.
        const Configuration stage1_best = ctx().best_config();
        for (const auto& gc_group : hierarchy.groups()) {
          if (gc_group.name != "gc") continue;
          for (const auto& jit_group : hierarchy.groups()) {
            if (jit_group.name != "jit") continue;
            for (std::size_t g = 0; g < gc_group.options.size(); ++g) {
              for (std::size_t j = 0; j < jit_group.options.size(); ++j) {
                Configuration candidate = stage1_best;
                gc_group.apply(candidate, g);
                jit_group.apply(candidate, j);
                s.queue.push_back(std::move(candidate));
              }
            }
          }
        }
        s.tell_mode = Impl::TellMode::kStructural;
        s.queue_guard = kStructuralBudgetFrac;
        break;
      }
      case Impl::Stage::kBasePick: {
        // Pick the descent bases: the best structural candidate, hedged
        // with the default structure when they differ. A structure that
        // wins at default flag values can lose once its numeric flags are
        // tuned (e.g. -Xcomp looks decent against untuned -Xmixed but
        // freezes the threshold flags), and the default structure is where
        // most of HotSpot's tunable headroom lives.
        std::stable_sort(
            s.structural_results.begin(), s.structural_results.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
        std::vector<std::string> seen_structures;
        const Configuration default_config(registry);
        for (const auto& [objective, config] : s.structural_results) {
          if (!std::isfinite(objective)) continue;
          const std::string sig = structure_signature(hierarchy, config);
          if (std::find(seen_structures.begin(), seen_structures.end(), sig) !=
              seen_structures.end()) {
            continue;
          }
          seen_structures.push_back(sig);
          s.bases.push_back(config);
          break;  // best structure only; the default hedge comes next
        }
        // Hedge with the default structure only when the remaining budget
        // can fund a meaningful descent on both bases; on slow benchmarks
        // the whole slice goes to the winner.
        const double spent_frac = ctx().committed_spent() / total;
        const double per_eval_frac =
            spent_frac / static_cast<double>(std::max<std::int64_t>(
                             1, ctx().evaluations()));
        const double affordable_evals =
            per_eval_frac > 0 ? kSubtreeBudgetFrac / per_eval_frac : 1e9;
        if (affordable_evals >= 250.0) {
          const std::string default_sig =
              structure_signature(hierarchy, default_config);
          if (std::find(seen_structures.begin(), seen_structures.end(),
                        default_sig) == seen_structures.end()) {
            s.bases.push_back(default_config);
          }
        } else if (!s.bases.empty() &&
                   structure_signature(hierarchy, s.bases.front()) !=
                       structure_signature(hierarchy, default_config) &&
                   ctx().best_objective() > 0.93 * s.baseline_objective) {
          // Tight budget and the structural winner beat the default by
          // less than 7%: descend on the default structure instead.
          s.bases.clear();
          s.bases.push_back(default_config);
        }
        if (s.bases.empty()) s.bases.push_back(ctx().best_config());
        ctx().set_phase("subtree");
        s.base_index = 0;
        s.stage = Impl::Stage::kBaseAnchor;
        break;
      }
      case Impl::Stage::kBaseAnchor: {
        if (s.base_index >= s.bases.size()) {
          s.stage = Impl::Stage::kRefineEnter;
          break;
        }
        const double subtree_start = kStructuralBudgetFrac;
        const double subtree_end = subtree_start + kSubtreeBudgetFrac;
        s.slice_end = subtree_start +
                      (subtree_end - subtree_start) *
                          static_cast<double>(s.base_index + 1) /
                          static_cast<double>(s.bases.size());
        if (phase_over(s.slice_end)) {
          ++s.base_index;
          break;
        }
        // Anchor the base (usually a cache hit) to seat the comparison
        // objective before its probes go out.
        s.current = s.bases[s.base_index];
        s.current_objective = std::numeric_limits<double>::infinity();
        s.queue.push_back(s.current);
        s.tell_mode = Impl::TellMode::kAnchor;
        s.queue_guard = s.slice_end;
        s.stage = Impl::Stage::kAnchorDone;
        break;
      }
      case Impl::Stage::kAnchorDone: {
        // Collect per-node flag lists under this base's structure and
        // interleave them breadth-first across subsystems, memory/GC/
        // compiler nodes getting double slots. Within a node the catalog
        // order already puts the prominent flags first.
        std::vector<std::vector<FlagId>> node_flags;
        std::vector<int> node_weight;
        std::function<void(const HierarchyNode&)> walk =
            [&](const HierarchyNode& node) {
              if (options_.gate_subtrees && node.gate && !node.gate(s.current)) {
                return;
              }
              if (!node.flags.empty()) {
                node_flags.push_back(node.flags);
                const bool hot = node.name == "memory" ||
                                 node.name.rfind("gc", 0) == 0 ||
                                 node.name == "compiler";
                node_weight.push_back(hot ? 2 : 1);
              }
              for (const auto& child : node.children) walk(child);
            };
        walk(hierarchy.root());

        s.descent_flags.clear();
        std::vector<std::size_t> cursor(node_flags.size(), 0);
        for (bool any = true; any;) {
          any = false;
          for (std::size_t n = 0; n < node_flags.size(); ++n) {
            for (int slot = 0; slot < node_weight[n]; ++slot) {
              if (cursor[n] < node_flags[n].size()) {
                s.descent_flags.push_back(node_flags[n][cursor[n]++]);
                any = true;
              }
            }
          }
        }
        s.pass = 0;
        s.flag_cursor = 0;
        s.stage = Impl::Stage::kFlagProbes;
        break;
      }
      case Impl::Stage::kFlagProbes: {
        if (phase_over(s.slice_end)) {
          ++s.base_index;
          s.stage = Impl::Stage::kBaseAnchor;
          break;
        }
        if (s.flag_cursor >= s.descent_flags.size()) {
          s.flag_cursor = 0;
          if (++s.pass >= 2) {
            ++s.base_index;
            s.stage = Impl::Stage::kBaseAnchor;
          }
          break;
        }
        const double scale = s.pass == 0 ? 1.0 : 0.5;
        const FlagId id = s.descent_flags[s.flag_cursor];
        const FlagSpec& spec = registry.spec(id);
        // Two-sided probes for numeric flags: always try one candidate on
        // each side of the current value (plus the default and a random
        // long-range sample), so a steep monotone response can never be
        // missed by unlucky sampling; the line search then follows the
        // winning direction.
        std::vector<FlagValue> candidates;
        candidates.push_back(spec.default_value);
        if (spec.type == FlagType::kInt || spec.type == FlagType::kSize) {
          const std::int64_t v = s.current.get(id).as_int();
          const std::int64_t lo = spec.int_domain.lo;
          const std::int64_t hi = spec.int_domain.hi;
          candidates.push_back(FlagValue(std::clamp(v / 2, lo, hi)));
          candidates.push_back(
              FlagValue(std::clamp(v >= hi / 2 ? hi : v * 2, lo, hi)));
          candidates.push_back(ctx().space().random_value(spec, ctx().rng()));
        } else {
          candidates.push_back(ctx().space().random_value(spec, ctx().rng()));
          while (static_cast<int>(candidates.size()) < kValuesPerFlag) {
            candidates.push_back(ctx().space().neighbor_value(
                spec, s.current.get(id), ctx().rng(), scale));
          }
        }
        s.active_flag = id;
        s.flag_before = s.current.get(id);
        for (const FlagValue& value : candidates) {
          if (value == s.flag_before) continue;
          Configuration candidate = s.current;
          candidate.set(id, value);
          s.queue.push_back(std::move(candidate));
        }
        if (s.queue.empty()) {
          ++s.flag_cursor;  // every candidate collapsed onto the current value
          break;
        }
        s.tell_mode = Impl::TellMode::kProbe;
        s.queue_guard = s.slice_end;
        s.stage = Impl::Stage::kProbesDone;
        break;
      }
      case Impl::Stage::kProbesDone: {
        const FlagSpec& spec = registry.spec(s.active_flag);
        const FlagValue after = s.current.get(s.active_flag);
        const bool numeric =
            spec.type == FlagType::kInt || spec.type == FlagType::kSize;
        if (numeric && !(after == s.flag_before) && s.flag_before.is_int() &&
            s.flag_before.as_int() > 0 && after.as_int() > 0) {
          s.line_ratio = static_cast<double>(after.as_int()) /
                         static_cast<double>(s.flag_before.as_int());
          if (s.line_ratio > 0.0 && s.line_ratio != 1.0 &&
              !phase_over(s.slice_end)) {
            s.line_steps = 0;
            s.line_stopped = false;
            build_line_chunk();
            if (!s.queue.empty()) {
              s.tell_mode = Impl::TellMode::kLine;
              s.queue_guard = s.slice_end;
              s.stage = Impl::Stage::kLineChunk;
              break;
            }
          }
        }
        ++s.flag_cursor;
        s.stage = Impl::Stage::kFlagProbes;
        break;
      }
      case Impl::Stage::kLineChunk: {
        if (!s.line_stopped && s.line_steps < 12 && !phase_over(s.slice_end)) {
          build_line_chunk();
          if (!s.queue.empty()) break;  // stay: another chunk on the ray
        }
        ++s.flag_cursor;
        s.stage = Impl::Stage::kFlagProbes;
        break;
      }
      case Impl::Stage::kRefineEnter: {
        ctx().set_phase("refine");
        s.current = ctx().best_config();
        s.current_objective = ctx().best_objective();
        s.stagnation = 0;
        s.tell_mode = Impl::TellMode::kRefine;
        s.stage = Impl::Stage::kRefine;
        break;
      }
      case Impl::Stage::kRefine: {
        // Steady state: speculative multi-flag mutations of the current
        // point, no batching.
        Configuration candidate = s.current;
        const double structure_probability =
            options_.structural_first ? 0.04 : 0.10;
        const int flags = 1 + static_cast<int>(ctx().rng().next_below(6));
        const double mut_scale = ctx().rng().chance(0.3) ? 2.0 : 1.0;
        if (ctx().rng().chance(structure_probability)) {
          ctx().space().mutate_structure(candidate, ctx().rng());
        } else if (options_.gate_subtrees) {
          ctx().space().mutate(candidate, ctx().rng(), flags, mut_scale);
        } else {
          ctx().space().mutate_flat(candidate, ctx().rng(), flags, mut_scale);
        }
        out.emplace_back(std::move(candidate));
        ++s.outstanding;
        break;
      }
    }
  }
}

void HierarchicalTuner::tell(const Observation& observation) {
  Impl& s = *impl_;
  const FlagHierarchy& hierarchy = ctx().space().hierarchy();
  --s.outstanding;

  switch (s.tell_mode) {
    case Impl::TellMode::kStructural: {
      if (ctx().tracing()) {
        ctx().trace_event(
            TraceEvent("structural_choice", ctx().committed_spent())
                .with("signature",
                      structure_signature(hierarchy, *observation.config))
                .with("fingerprint", fingerprint_hex(observation.fingerprint))
                .with("objective_ms", observation.objective));
      }
      s.structural_results.emplace_back(observation.objective,
                                        *observation.config);
      break;
    }
    case Impl::TellMode::kAnchor: {
      s.current_objective = observation.objective;
      break;
    }
    case Impl::TellMode::kProbe: {
      if (observation.objective < s.current_objective) {
        s.current = *observation.config;
        s.current_objective = observation.objective;
      }
      break;
    }
    case Impl::TellMode::kLine: {
      if (s.line_stopped) break;  // a rejected step already ended the ray
      const bool accepted = observation.objective < s.current_objective;
      if (ctx().tracing()) {
        const FlagSpec& spec =
            hierarchy.registry().spec(s.active_flag);
        ctx().trace_event(
            TraceEvent("line_search", ctx().committed_spent())
                .with("flag", spec.name)
                .with("value", observation.config->get(s.active_flag).as_int())
                .with("objective_ms", observation.objective)
                .with("accepted", accepted));
      }
      if (accepted) {
        s.current = *observation.config;
        s.current_objective = observation.objective;
      } else {
        s.line_stopped = true;
      }
      break;
    }
    case Impl::TellMode::kRefine: {
      if (observation.objective < s.current_objective) {
        s.current = *observation.config;
        s.current_objective = observation.objective;
        s.stagnation = 0;
      } else if (++s.stagnation >= 50) {
        s.current = ctx().best_config();
        s.current_objective = ctx().best_objective();
        s.stagnation = 0;
      }
      break;
    }
    case Impl::TellMode::kNone:
      break;
  }
}

}  // namespace jat
