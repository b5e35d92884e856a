#include "fuzz/fuzzer.h"

#include <algorithm>
#include <cassert>
#include <istream>
#include <iterator>
#include <stdexcept>

#include "fuzz/selection.h"
#include "fuzz/state_io.h"
#include "util/thread_pool.h"

namespace ccfuzz::fuzz {
namespace {

bool better(const Member& a, const Member& b) {
  return a.eval.score.total() > b.eval.score.total();
}

/// Population-ranking fitness: score plus the transient novelty bonus.
/// Identical to the raw score when no bonus is configured, so reporting
/// (best_ever, top_members, GenStats) always reads raw scores while
/// selection may favour behavioral novelty.
bool ranked_better(const Member& a, const Member& b) {
  return a.eval.score.total() + a.novelty > b.eval.score.total() + b.novelty;
}

void sort_best_first(std::vector<Member>& members) {
  std::stable_sort(members.begin(), members.end(), ranked_better);
}

}  // namespace

Fuzzer::Fuzzer(Shape, const GaConfig& cfg,
               std::shared_ptr<const TraceModel> model, bool coverage,
               bool parallel)
    : cfg_(cfg), model_(std::move(model)), parallel_(parallel) {
  assert(cfg_.population >= 2 && "population too small");
  assert(cfg_.islands >= 1 && "need at least one island");
  assert(cfg_.islands <= cfg_.population && "more islands than members");

  // The archive rides along whenever runs produce coverage signatures: in
  // kScore mode it is passive telemetry (and the novelty-bonus source), in
  // kMapElites mode it is the parent pool.
  if (coverage) {
    archive_ = std::make_shared<EliteArchive>();
  } else if (cfg_.search == SearchMode::kMapElites) {
    throw std::logic_error(
        "SearchMode::kMapElites requires the scenario to arm the coverage "
        "probe (ScenarioConfig::coverage = true)");
  } else if (cfg_.novelty_bonus != 0.0) {
    throw std::logic_error(
        "GaConfig::novelty_bonus requires the scenario to arm the coverage "
        "probe (ScenarioConfig::coverage = true)");
  }

  islands_.resize(static_cast<std::size_t>(cfg_.islands));
}

Fuzzer::Fuzzer(const GaConfig& cfg, std::shared_ptr<const TraceModel> model,
               bool coverage, bool parallel)
    : Fuzzer(Shape{}, cfg, std::move(model), coverage, parallel) {
  Rng master(cfg_.seed);
  for (std::size_t i = 0; i < islands_.size(); ++i) {
    islands_[i].rng = master.fork(static_cast<std::uint64_t>(i) + 1);
  }
  const std::size_t base = static_cast<std::size_t>(cfg_.population) /
                           islands_.size();
  const std::size_t extra = static_cast<std::size_t>(cfg_.population) %
                            islands_.size();
  maybe_parallel_for(parallel_, islands_.size(), [&](std::size_t i) {
    Island& isl = islands_[i];
    const std::size_t count = base + (i < extra ? 1 : 0);
    isl.members.reserve(count);
    for (std::size_t m = 0; m < count; ++m) {
      Member mem;
      mem.genome = model_->generate(isl.rng);
      isl.members.push_back(std::move(mem));
    }
  });
}

Fuzzer::Fuzzer(const GaConfig& cfg, std::shared_ptr<const TraceModel> model,
               bool coverage, bool parallel, record::Reader& state)
    : Fuzzer(Shape{}, cfg, std::move(model), coverage, parallel) {
  restore_state(state);
}

std::vector<Member*> Fuzzer::pending_members() {
  std::vector<Member*> todo;
  for (auto& isl : islands_) {
    for (auto& m : isl.members) {
      if (!m.evaluated) todo.push_back(&m);
    }
  }
  return todo;
}

void Fuzzer::breed_island(Island& isl) {
  sort_best_first(isl.members);
  const std::size_t n = isl.members.size();
  const std::size_t elites = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(cfg_.elites_per_island, 0)), n);

  std::size_t crossovers = static_cast<std::size_t>(
      cfg_.crossover_fraction * static_cast<double>(n) + 0.5);
  crossovers = std::min(crossovers, n - elites);
  // Link mode has no crossover (§3.2): those slots become mutations.
  if (n < 2 || !model_->supports_crossover()) crossovers = 0;

  // MAP-Elites draws half its parents uniformly from the behavior archive
  // and half from the island's rank order (pure-archive selection inbreeds
  // while the archive is small: a dozen elites cannot carry a population's
  // worth of genetic diversity). Until the first generation has populated
  // the archive, everything falls back to rank selection. Elite carry-over
  // is unchanged, so each island still preserves its best scorer.
  const bool has_archive = cfg_.search == SearchMode::kMapElites &&
                           archive_ != nullptr && archive_->filled() > 0;
  RankSelector select(n);
  const auto parent = [&](Rng& rng) -> const trace::Trace& {
    if (has_archive && rng.coin()) return archive_->sample(rng).genome;
    return isl.members[select.pick(rng)].genome;
  };

  std::vector<Member> next;
  next.reserve(n);

  // Elites survive unchanged, evaluation included.
  for (std::size_t i = 0; i < elites; ++i) next.push_back(isl.members[i]);

  for (std::size_t i = 0; i < crossovers; ++i) {
    Member m;
    if (has_archive) {
      // Named draws, second parent first: C++ leaves argument evaluation
      // order unspecified, and GCC drew the second argument of the former
      // crossover(parent(rng), parent(rng), rng) first. Every golden and
      // checkpoint was bred in that order; now every compiler breeds it.
      const trace::Trace& b = parent(isl.rng);
      const trace::Trace& a = parent(isl.rng);
      m.genome = std::move(*model_->crossover(a, b, isl.rng));
    } else {
      const auto [a, b] = select.pick_pair(isl.rng);
      m.genome = std::move(*model_->crossover(isl.members[a].genome,
                                              isl.members[b].genome, isl.rng));
    }
    next.push_back(std::move(m));
  }

  while (next.size() < n) {
    Member m;
    if (cfg_.anneal) {
      // §3.2: smooth the parent between evaluation and mutation, so
      // variation fades wherever it is not needed to keep the score.
      m.genome =
          model_->mutate(trace::anneal(parent(isl.rng), cfg_.anneal_cfg),
                         isl.rng);
    } else {
      m.genome = model_->mutate(parent(isl.rng), isl.rng);
    }
    next.push_back(std::move(m));
  }

  isl.members = std::move(next);
}

void Fuzzer::migrate() {
  if (islands_.size() < 2) return;
  const std::size_t n0 = islands_[0].members.size();
  const std::size_t count = std::max<std::size_t>(
      1, static_cast<std::size_t>(cfg_.migration_fraction *
                                  static_cast<double>(n0)));
  // Ring migration: snapshot each island's top members first so a migrant
  // cannot hop two islands in one round.
  std::vector<std::vector<Member>> exports(islands_.size());
  for (std::size_t i = 0; i < islands_.size(); ++i) {
    auto& members = islands_[i].members;
    sort_best_first(members);
    const std::size_t k = std::min(count, members.size());
    exports[i].assign(members.begin(),
                      members.begin() + static_cast<std::ptrdiff_t>(k));
  }
  for (std::size_t i = 0; i < islands_.size(); ++i) {
    const std::size_t dst = (i + 1) % islands_.size();
    auto& members = islands_[dst].members;
    // Replace the worst members of the destination (members are sorted).
    const std::size_t k = std::min(exports[i].size(), members.size());
    for (std::size_t j = 0; j < k; ++j) {
      members[members.size() - 1 - j] = exports[i][j];
    }
  }
}

GenStats Fuzzer::collect_stats() {
  GenStats gs;
  gs.generation = generation_;
  std::vector<const Member*> all;
  double sum = 0.0;
  for (const auto& isl : islands_) {
    for (const auto& m : isl.members) {
      all.push_back(&m);
      sum += m.eval.score.total();
      gs.stalled_count += m.eval.stalled ? 1 : 0;
    }
  }
  std::stable_sort(all.begin(), all.end(), [](const Member* a, const Member* b) {
    return better(*a, *b);
  });
  gs.best_score = all.front()->eval.score.total();
  gs.mean_score = sum / static_cast<double>(all.size());

  const std::size_t k = std::min<std::size_t>(kTopK, all.size());
  double sent = 0.0, goodput = 0.0, jain = 0.0;
  std::size_t n_flows = 0;
  for (std::size_t i = 0; i < k; ++i) {
    n_flows = std::max(n_flows, all[i]->eval.flow_goodput_mbps.size());
  }
  gs.topk_mean_flow_goodput_mbps.assign(n_flows, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    sent += static_cast<double>(all[i]->eval.cca_sent);
    goodput += all[i]->eval.goodput_mbps;
    jain += all[i]->eval.jain_fairness;
    const auto& per_flow = all[i]->eval.flow_goodput_mbps;
    for (std::size_t f = 0; f < per_flow.size(); ++f) {
      gs.topk_mean_flow_goodput_mbps[f] += per_flow[f];
    }
  }
  gs.topk_mean_packets_sent = sent / static_cast<double>(k);
  gs.topk_mean_goodput_mbps = goodput / static_cast<double>(k);
  gs.topk_mean_jain_fairness = jain / static_cast<double>(k);
  for (double& g : gs.topk_mean_flow_goodput_mbps) {
    g /= static_cast<double>(k);
  }
  gs.evaluations = total_evaluations_;

  if (!best_ever_.evaluated || better(*all.front(), best_ever_)) {
    best_ever_ = *all.front();
  }
  return gs;
}

void Fuzzer::seed_archive(EliteArchive a) {
  if (!archive_) {
    throw std::logic_error(
        "seed_archive: this fuzzer tracks no archive (scenario coverage off)");
  }
  *archive_ = std::move(a);
}

void Fuzzer::absorb_into_archive(GenStats& gs) {
  if (!archive_) return;
  // Deterministic (island, slot) order: archive contents are a pure
  // function of the evaluated population, independent of thread scheduling.
  for (auto& isl : islands_) {
    for (auto& m : isl.members) {
      if (!m.evaluated || !m.eval.coverage.valid) continue;
      const EliteArchive::InsertResult r = archive_->insert(m.genome, m.eval);
      m.novelty = cfg_.novelty_bonus * static_cast<double>(r.fresh_bits);
      gs.archive_new_cells += r.new_cell ? 1 : 0;
      gs.archive_improved += r.improved ? 1 : 0;
    }
  }
  gs.archive_cells = static_cast<std::int64_t>(archive_->filled());
  gs.coverage_bits = static_cast<std::int64_t>(archive_->union_bits());
}

GenStats Fuzzer::advance_generation() {
  GenStats gs = collect_stats();
  absorb_into_archive(gs);
  history_.push_back(gs);
  ++generation_;

  if (cfg_.migration_interval > 0 &&
      generation_ % cfg_.migration_interval == 0) {
    migrate();
  }
  // Breeding reads the shared archive and model and writes only its own
  // island, with draws from its own RNG stream: the pool changes the time
  // it takes, not the children.
  maybe_parallel_for(parallel_, islands_.size(),
                     [this](std::size_t i) { breed_island(islands_[i]); });
  return gs;
}

void Fuzzer::save_state(record::Writer& w) const {
  w << "# ccfuzz-fuzzer v1\n";
  w << "# generation " << generation_ << '\n';
  w << "# total_evaluations " << total_evaluations_ << '\n';
  w << "# best " << best_ever_.evaluated << '\n';
  if (best_ever_.evaluated) state_io::write_member(w, best_ever_);
  w << "# history " << history_.size() << '\n';
  for (const GenStats& gs : history_) state_io::write_genstats(w, gs);
  w << "# islands " << islands_.size() << '\n';
  for (std::size_t i = 0; i < islands_.size(); ++i) {
    const Island& isl = islands_[i];
    w << "# island " << i << ' ';
    w.hex(isl.rng.state()) << ' ' << isl.members.size() << '\n';
    for (const Member& m : isl.members) state_io::write_member(w, m);
    w << "# end island\n";
  }
  w << "# archive " << (archive_ != nullptr) << '\n';
  if (archive_) archive_->save(w, /*terminated=*/true);
  w << "# end fuzzer\n";
}

Error Fuzzer::restore_state(std::istream& is) {
  const std::string text(std::istreambuf_iterator<char>(is), {});
  record::Reader r(text);
  return restore_state(r);
}

void Fuzzer::read_island(record::Reader& r, std::size_t i) {
  std::size_t idx = 0, n_members = 0;
  std::array<std::uint64_t, 4> s{};
  r.read("island", idx, record::Hex(s), n_members);
  if (idx != i) r.fail(Error::corrupt("fuzzer state: island out of order"));
  Island& isl = islands_[i];
  isl.rng.set_state(s);
  isl.members.clear();
  for (std::size_t m = 0; m < n_members && r.ok(); ++m) {
    state_io::read_member(r, isl.members.emplace_back());
  }
  r.end("island");
}

Error Fuzzer::restore_state(record::Reader& r) {
  bool has_best = false, has_archive = false;
  std::size_t n_hist = 0, n_islands = 0;
  r.header("ccfuzz-fuzzer", "v1");
  r.read("generation", generation_);
  r.read("total_evaluations", total_evaluations_);
  r.read("best", has_best);
  best_ever_ = Member{};
  if (has_best) state_io::read_member(r, best_ever_);
  // Counts read from the stream size nothing up front: a mangled count
  // fails at the first missing record instead of allocating.
  r.read("history", n_hist);
  history_.clear();
  for (std::size_t i = 0; i < n_hist && r.ok(); ++i) {
    state_io::read_genstats(r, history_.emplace_back());
  }
  r.read("islands", n_islands);
  if (n_islands != islands_.size()) {
    r.fail(Error::mismatch("fuzzer state: island count mismatch (config has " +
                           std::to_string(islands_.size()) + ", state has " +
                           std::to_string(n_islands) + ")"));
  }
  // Each island writes only its own members and RNG stream.
  r.blocks("island", n_islands, parallel_,
           [this](record::Reader& b, std::size_t i) { read_island(b, i); });
  r.read("archive", has_archive);
  if (has_archive != (archive_ != nullptr)) {
    r.fail(Error::mismatch(
        "fuzzer state: archive presence mismatch (coverage setting changed?)"));
  }
  if (has_archive && r.ok()) {
    if (Result<EliteArchive> a = EliteArchive::try_load(r, /*terminated=*/true)) {
      *archive_ = std::move(*a);
    }
  }
  r.end("fuzzer");
  return r.error();
}

std::vector<Member> Fuzzer::top_members(std::size_t k) const {
  std::vector<Member> all;
  for (const auto& isl : islands_) {
    for (const auto& m : isl.members) {
      if (m.evaluated) all.push_back(m);
    }
  }
  sort_best_first(all);
  if (all.size() > k) all.resize(k);
  return all;
}

}  // namespace ccfuzz::fuzz
