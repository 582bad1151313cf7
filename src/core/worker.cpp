#include "core/worker.hpp"

#include <algorithm>
#include <cstddef>

#include "support/check.hpp"

namespace ftbb::core {

const char* to_string(RecoveryPolicy policy) {
  switch (policy) {
    case RecoveryPolicy::kRandom:
      return "random";
    case RecoveryPolicy::kDeepest:
      return "deepest";
    case RecoveryPolicy::kShallowest:
      return "shallowest";
    case RecoveryPolicy::kNearLastLocal:
      return "near-last-local";
  }
  return "?";
}

BnbWorker::BnbWorker(NodeId id, const bnb::IProblemModel* model,
                     const WorkerConfig* config, IWorkerEnv* env)
    : id_(id), model_(model), config_(config), env_(env), pool_(config->rule) {
  static_assert(offsetof(BnbWorker, work_) == kHotBytes,
                "the hot state no longer ends where the counter block begins");
  static_assert(sizeof(BnbWorker) <= 704,
                "BnbWorker outgrew its footprint; see the README's "
                "\"Per-worker footprint\" section before raising this bound");
  FTBB_CHECK(model_ != nullptr);
  FTBB_CHECK(env_ != nullptr);
  FTBB_CHECK(config_->report_fanout >= 1);
  controller_.configure(config_->work_request_timeout, config_->report_batch,
                        static_cast<double>(config_->report_fanout) *
                            (config_->costs.send_fixed + config_->costs.recv_fixed));
}

const PathCode& BnbWorker::best_code() const {
  static const PathCode root = PathCode::root();
  return best_code_ ? *best_code_ : root;
}

void BnbWorker::on_start(bool with_root) {
  FTBB_CHECK_MSG(!started_, "worker started twice");
  started_ = true;
  note_progress();
  // Stagger the first table gossip so the anti-entropy traffic of a large
  // group does not synchronize.
  env_->set_timer(TimerKind::kTableGossip,
                  config_->table_gossip_interval * (0.5 + env_->rng().uniform()),
                  ++gossip_gen_);
  if (with_root) {
    pool_.push(bnb::Subproblem{PathCode::root(), model_->root_bound()});
    continue_work();
    return;
  }
  // Idle members pause briefly before their first work request; without the
  // stagger every member would hit the root holder in the same instant.
  backoff_armed_ = true;
  env_->set_wait_hint(WaitHint::kIdle);
  env_->set_timer(TimerKind::kBackoff, env_->rng().uniform(0.0, config_->initial_stagger),
                  ++backoff_gen_);
}

// ---------------------------------------------------------------------------
// Scheduling skeleton
// ---------------------------------------------------------------------------

void BnbWorker::continue_work() {
  if (halted_) return;
  if (maybe_terminate()) return;
  if (!pool_.empty()) {
    env_->set_wait_hint(WaitHint::kNone);
    schedule_step();
    return;
  }
  seek_work();
}

void BnbWorker::schedule_step() {
  if (step_scheduled_) return;
  step_scheduled_ = true;
  env_->set_timer(TimerKind::kStep, 0.0, ++step_gen_);
}

void BnbWorker::do_step() {
  if (pool_.empty()) {
    continue_work();
    return;
  }
  // No entry needs an elimination check here: every push requires
  // bound < incumbent, and every incumbent drop prunes the pool.
  const bnb::Subproblem p = pool_.pop();
  if (table_.covered(p.code)) {
    // A work report proved this subproblem done elsewhere; drop it
    // ("interrupting the redundant work when information is updated").
    ++work_[WorkItem::kCoveredSkips];
  } else {
    expand(p);
  }
  continue_work();
}

// ---------------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------------

void BnbWorker::expand(const bnb::Subproblem& p) {
  const bnb::NodeEval eval = model_->eval(p.code);
  env_->charge(CostKind::kBB, eval.cost);
  env_->note_expansion(p.code, eval.cost);
  controller_.observe(eval.cost);
  ++work_[WorkItem::kExpansions];

  if (eval.feasible_leaf) {
    ++work_[WorkItem::kFeasibleLeaves];
    if (eval.value < incumbent_) {
      incumbent_ = eval.value;
      if (!best_code_) best_code_ = std::make_unique<PathCode>();
      *best_code_ = p.code;
      ++work_[WorkItem::kIncumbentUpdates];
      prune_pool_by_bound();
    }
    complete(p.code);
    return;
  }
  if (eval.children.empty()) {
    ++work_[WorkItem::kDeadEnds];
    complete(p.code);
    return;
  }
  // The parent's completion is implied: once both child codes are in the
  // table, list contraction replaces them by the parent code.
  for (const bnb::ChildOut& child : eval.children) {
    const PathCode code = p.code.child(child.var, child.bit != 0);
    if (child.infeasible) {
      ++work_[WorkItem::kDeadEnds];
      complete(code);
      continue;
    }
    if (config_->enable_elimination && child.bound >= incumbent_) {
      ++work_[WorkItem::kEliminated];
      complete(code);
      continue;
    }
    if (table_.covered(code)) {
      ++work_[WorkItem::kCoveredSkips];
      continue;
    }
    pool_.push(bnb::Subproblem{code, child.bound});
  }
}

void BnbWorker::complete(const PathCode& code) {
  ++work_[WorkItem::kCompletions];
  if (!last_local_completion_) last_local_completion_ = std::make_unique<PathCode>();
  *last_local_completion_ = code;
  env_->note_completion(code);
  const CodeSet::InsertResult r = table_.insert(code);
  note_contraction(1, static_cast<std::uint64_t>(r.nodes_walked + r.merges));
  env_->charge(CostKind::kContraction,
               config_->costs.contract_per_code +
                   config_->costs.contract_per_node * (r.nodes_walked + r.merges));
  if (!r.newly_covered) return;  // already known through reports
  note_progress();
  fresh_.push_back(code);
  if (fresh_.size() >= effective_report_batch()) {
    send_report();
  } else {
    arm_flush_timer();
  }
}

void BnbWorker::absorb_incumbent(double value) {
  if (value < incumbent_) {
    incumbent_ = value;
    ++work_[WorkItem::kIncumbentUpdates];
    prune_pool_by_bound();
  }
}

void BnbWorker::prune_pool_by_bound() {
  if (!config_->enable_elimination) return;
  const auto removed = pool_.prune_above(incumbent_);
  for (const bnb::Subproblem& p : removed) {
    ++work_[WorkItem::kEliminated];
    complete(p.code);
  }
}

void BnbWorker::prune_pool_covered() {
  const auto removed = pool_.remove_if(
      [this](const bnb::Subproblem& p) { return table_.covered(p.code); });
  work_[WorkItem::kCoveredSkips] += removed.size();
}

// ---------------------------------------------------------------------------
// Work reports, gossip, termination
// ---------------------------------------------------------------------------

void BnbWorker::send_report() {
  if (fresh_.empty()) return;
  CodeList codes;
  if (config_->compress_against_table) {
    // Ship the maximal covering code the table knows for each fresh
    // completion — a prefix of it, so a view into fresh_ — deduplicated
    // (covering codes form an antichain, so equality is the only possible
    // overlap).
    std::vector<PathView>& regions = report_regions_;
    regions.clear();
    for (const PathCode& c : fresh_) {
      const std::optional<std::size_t> len = table_.covering_prefix_len(c);
      regions.push_back(c.view().prefix(len.value_or(c.depth())));
      note_contraction(0, c.depth() + 1);
      env_->charge(CostKind::kContraction,
                   config_->costs.contract_per_node * static_cast<double>(c.depth() + 1));
    }
    std::sort(regions.begin(), regions.end());
    regions.erase(std::unique(regions.begin(), regions.end()), regions.end());
    codes = CodeList(std::span<const PathView>(regions));
  } else {
    // Paper-literal scheme: contract the list against itself only.
    CodeSet tmp;
    const CodeSet::InsertResult r = tmp.insert_all(fresh_);
    note_contraction(fresh_.size(),
                     static_cast<std::uint64_t>(r.nodes_walked + r.merges));
    env_->charge(CostKind::kContraction,
                 config_->costs.contract_per_code * static_cast<double>(fresh_.size()) +
                     config_->costs.contract_per_node * (r.nodes_walked + r.merges));
    codes = tmp.export_list();
  }

  Message m;
  m.type = MsgType::kWorkReport;
  m.from = id_;
  m.best_known = incumbent_;
  m.codes = std::move(codes);
  m.report_seq = ++report_batches_;

  const std::span<const NodeId> peers = env_->peers();
  if (!peers.empty()) {
    const std::size_t fanout =
        std::min<std::size_t>(config_->report_fanout, peers.size());
    const std::vector<std::size_t> picks =
        env_->rng().sample_without_replacement(peers.size(), fanout);
    for (const std::size_t i : picks) env_->send(peers[i], m);
    ++work_[WorkItem::kReportsSent];
    work_[WorkItem::kReportCodesSent] += m.codes.size();
  }
  fresh_.clear();
  flush_armed_ = false;
}

void BnbWorker::send_table_gossip() {
  // Nothing to push yet: the common case of an idle worker's deny loop,
  // settled before the peer view is read.
  if (table_.empty()) return;
  const std::span<const NodeId> peers = env_->peers();
  if (peers.empty()) return;
  Message m;
  m.type = MsgType::kTableGossip;
  m.from = id_;
  m.best_known = incumbent_;
  m.codes = table_.export_list();
  m.report_seq = ++report_batches_;
  note_contraction(0, table_.trie_nodes());
  env_->charge(CostKind::kContraction,
               config_->costs.contract_per_node * static_cast<double>(table_.trie_nodes()));
  env_->send(peers[env_->rng().pick(peers.size())], m);
  ++work_[WorkItem::kTableGossipsSent];
}

void BnbWorker::arm_flush_timer() {
  if (flush_armed_) return;
  flush_armed_ = true;
  env_->set_timer(TimerKind::kReportFlush, config_->report_flush_interval, ++flush_gen_);
}

bool BnbWorker::maybe_terminate() {
  if (halted_) return true;
  if (!table_.root_complete()) return false;
  // Section 5.4: the detector sends one final work report — the root code —
  // to every member it knows, then stops.
  halted_ = true;
  halted_at_ = env_->now();
  Message m;
  m.type = MsgType::kRootReport;
  m.from = id_;
  m.best_known = incumbent_;
  m.codes = {PathCode::root()};
  for (const NodeId peer : env_->peers()) env_->send(peer, m);
  env_->set_wait_hint(WaitHint::kHalted);
  env_->notify_halted();
  return true;
}

// ---------------------------------------------------------------------------
// Load balancing & failure recovery
// ---------------------------------------------------------------------------

void BnbWorker::enter_backoff(std::uint32_t steps) {
  backoff_armed_ = true;
  steps = std::min(std::max(steps, 1u), kMaxBackoffSteps);
  env_->set_wait_hint(WaitHint::kIdle);
  env_->set_timer(TimerKind::kBackoff,
                  config_->idle_backoff * static_cast<double>(steps), ++backoff_gen_);
}

double BnbWorker::effective_request_timeout() const {
  return config_->model_adaptivity ? controller_.request_timeout()
                                  : config_->work_request_timeout;
}

std::uint32_t BnbWorker::effective_report_batch() const {
  return config_->model_adaptivity ? controller_.report_batch()
                                  : config_->report_batch;
}

bool BnbWorker::stalled() const {
  double threshold = kStallRecoveryFactor * effective_request_timeout();
  if (table_.empty()) threshold *= kEmptyTableStallMultiplier;
  return env_->now() - last_progress_ >= threshold;
}

void BnbWorker::seek_work() {
  if (request_outstanding_ || backoff_armed_) return;  // already waiting
  const std::span<const NodeId> peers = env_->peers();
  if (peers.empty()) {
    recover();  // alone in the group: nobody else can hold the missing work
    return;
  }
  // Recovery needs two signals together: repeated load-balancing failure
  // (timeouts, or a long deny streak) AND a group-wide progress stall.
  // Failure evidence without a stall is ramp-up or contention; a stall
  // without failure evidence resolves through the stall check below.
  if ((failed_attempts_ >= config_->attempts_before_recovery ||
       deny_streak_ >= kDenyStreakBeforeRecovery) &&
      stalled()) {
    recover();
    return;
  }
  Message m;
  m.type = MsgType::kWorkRequest;
  m.from = id_;
  m.best_known = incumbent_;
  m.request_id = ++request_gen_;
  const NodeId target = peers[env_->rng().pick(peers.size())];
  env_->charge(CostKind::kLoadBalance, config_->costs.lb_handle);
  env_->send(target, m);
  ++work_[WorkItem::kWorkRequestsSent];
  request_outstanding_ = true;
  env_->set_wait_hint(WaitHint::kAwaitingWork);
  env_->set_timer(TimerKind::kRequestTimeout, effective_request_timeout(), request_gen_);
}

void BnbWorker::handle_work_request(const Message& msg) {
  env_->charge(CostKind::kLoadBalance, config_->costs.lb_handle);
  Message reply;
  reply.from = id_;
  reply.best_known = incumbent_;
  reply.request_id = msg.request_id;
  if (pool_.size() >= config_->min_pool_to_grant) {
    std::size_t k = std::max<std::size_t>(pool_.size() / kGrantDivisor, 1);
    k = std::min<std::size_t>(k, kMaxGrantProblems);
    if (config_->model_adaptivity) k = controller_.grant_size(k);
    reply.type = MsgType::kWorkGrant;
    reply.problems = pool_.extract_for_sharing(k);
    env_->charge(CostKind::kLoadBalance,
                 config_->costs.lb_per_problem * static_cast<double>(reply.problems.size()));
    ++work_[WorkItem::kGrantsGiven];
    work_[WorkItem::kProblemsGiven] += reply.problems.size();
  } else {
    reply.type = MsgType::kWorkDeny;
    reply.busy = !pool_.empty();
  }
  env_->send(msg.from, reply);
}

void BnbWorker::handle_work_grant(const Message& msg) {
  env_->charge(CostKind::kLoadBalance,
               config_->costs.lb_handle +
                   config_->costs.lb_per_problem * static_cast<double>(msg.problems.size()));
  ++work_[WorkItem::kGrantsReceived];
  if (msg.request_id == request_gen_) request_outstanding_ = false;
  failed_attempts_ = 0;
  deny_streak_ = 0;
  note_progress();
  // A stale grant (answering a timed-out request) still carries problems;
  // absorbing them loses nothing and discarding them would force recovery
  // to redo the work later.
  for (const bnb::Subproblem& p : msg.problems) add_subproblem(p);
}

void BnbWorker::add_subproblem(bnb::Subproblem p) {
  if (table_.covered(p.code)) {
    ++work_[WorkItem::kCoveredSkips];
    return;
  }
  if (config_->enable_elimination && p.bound >= incumbent_) {
    ++work_[WorkItem::kEliminated];
    complete(p.code);
    return;
  }
  pool_.push(std::move(p));
}

std::size_t BnbWorker::pick_recovery_candidate(const std::vector<PathCode>& candidates) {
  FTBB_CHECK(!candidates.empty());
  switch (config_->recovery) {
    case RecoveryPolicy::kRandom:
      return env_->rng().pick(candidates.size());
    case RecoveryPolicy::kDeepest: {
      std::size_t best = 0;
      for (std::size_t i = 1; i < candidates.size(); ++i) {
        if (candidates[i].depth() > candidates[best].depth()) best = i;
      }
      return best;
    }
    case RecoveryPolicy::kShallowest: {
      std::size_t best = 0;
      for (std::size_t i = 1; i < candidates.size(); ++i) {
        if (candidates[i].depth() < candidates[best].depth()) best = i;
      }
      return best;
    }
    case RecoveryPolicy::kNearLastLocal: {
      // Prefer the candidate sharing the longest decision prefix with the
      // last problem completed locally: nearby regions are most likely to be
      // ours to finish and least likely to collide with other recoverers.
      if (!last_local_completion_) {
        // No local history yet: fall back to the deepest (smallest) region —
        // if the suspicion is wrong, the duplicated work is minimal.
        std::size_t best = 0;
        for (std::size_t i = 1; i < candidates.size(); ++i) {
          if (candidates[i].depth() > candidates[best].depth()) best = i;
        }
        return best;
      }
      const PathCode& last = *last_local_completion_;
      std::size_t best = 0;
      std::size_t best_lcp = 0;
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        std::size_t lcp = 0;
        const std::size_t limit = std::min(candidates[i].depth(), last.depth());
        while (lcp < limit && candidates[i].step(lcp) == last.step(lcp)) {
          ++lcp;
        }
        if (lcp > best_lcp ||
            (lcp == best_lcp && candidates[i].depth() > candidates[best].depth())) {
          best_lcp = lcp;
          best = i;
        }
      }
      return best;
    }
  }
  return 0;
}

void BnbWorker::recover() {
  // Load balancing failed repeatedly: presume results are missing
  // (crashed member, lost reports, partition) and pick an uncompleted
  // problem by complementing the completion table (Section 5.3.2). The
  // chosen code is self-contained, so the problem can be reconstructed
  // from scratch here.
  failed_attempts_ = 0;
  deny_streak_ = 0;
  std::vector<PathCode> candidates = table_.complement();
  note_contraction(0, table_.trie_nodes());
  env_->charge(CostKind::kContraction,
               config_->costs.contract_per_node * static_cast<double>(table_.trie_nodes()));
  if (candidates.empty()) {
    // The table is root-complete; termination will be detected upstream.
    continue_work();
    return;
  }
  ++work_[WorkItem::kRecoveries];
  // Policy picks the first region to re-create; regions whose bound already
  // exceeds the incumbent are fathomed on the spot (that, too, completes
  // them), and the first survivor goes to the pool.
  while (!candidates.empty()) {
    const std::size_t i = pick_recovery_candidate(candidates);
    PathCode code = std::move(candidates[i]);
    candidates[i] = std::move(candidates.back());
    candidates.pop_back();
    if (table_.covered(code)) continue;  // our own eliminations covered it
    const double bound = model_->bound_of(code);
    if (config_->enable_elimination && bound >= incumbent_) {
      ++work_[WorkItem::kEliminated];
      complete(code);
      continue;
    }
    pool_.push(bnb::Subproblem{std::move(code), bound});
    break;
  }
  continue_work();
}

// ---------------------------------------------------------------------------
// Work accounting
// ---------------------------------------------------------------------------

WorkLedger BnbWorker::work_snapshot() const {
  WorkLedger w = work_;
  const bnb::PoolMaintStats& pm = pool_.maintenance();
  w[WorkItem::kPoolPushes] = pm.pushes;
  w[WorkItem::kPoolPops] = pm.pops;
  w[WorkItem::kSweepEntriesScanned] = pm.sweep_entries_scanned;
  w[WorkItem::kShareExtracted] = pm.share_extracted;
  w[WorkItem::kControllerRetunes] = controller_.retunes();
  w[WorkItem::kIncarnations] = 1;
  return w;
}

// ---------------------------------------------------------------------------
// Event entry points
// ---------------------------------------------------------------------------

void BnbWorker::on_message(const Message& msg) {
  if (halted_) return;
  absorb_incumbent(msg.best_known);
  switch (msg.type) {
    case MsgType::kWorkRequest:
      handle_work_request(msg);
      break;
    case MsgType::kWorkGrant:
      handle_work_grant(msg);
      break;
    case MsgType::kWorkDeny:
      ++work_[WorkItem::kDeniesReceived];
      env_->charge(CostKind::kLoadBalance, config_->costs.lb_handle);
      // Progress accounting accepts busy denies even when stale: a late
      // reply from a peer grinding a coarse node is exactly the situation
      // in which the stall detector must stay quiet.
      if (msg.busy) note_progress();
      if (request_outstanding_ && msg.request_id == request_gen_) {
        request_outstanding_ = false;
        // A deny proves the peer is alive; by default it does not feed the
        // failure suspicion, it only slows down the polling.
        ++deny_streak_;
        if (config_->count_denies_toward_recovery) ++failed_attempts_;
        // Repeated denies with an empty pool look like the end of the
        // computation; push completion knowledge around to accelerate
        // termination detection (Section 6.3.1: idle processes "suspect
        // termination and send more work reports").
        if (deny_streak_ >= 2 && deny_streak_ % 2 == 0) {
          send_report();
          send_table_gossip();
        }
        enter_backoff(deny_streak_);
      }
      break;
    case MsgType::kWorkReport:
    case MsgType::kTableGossip:
    case MsgType::kRootReport: {
      const CodeSet::InsertResult r = table_.insert_all(msg.codes);
      note_contraction(msg.codes.size(),
                       static_cast<std::uint64_t>(r.nodes_walked + r.merges));
      env_->charge(CostKind::kContraction,
                   config_->costs.contract_per_code * static_cast<double>(msg.codes.size()) +
                       config_->costs.contract_per_node * (r.nodes_walked + r.merges));
      if (r.newly_covered) {
        note_progress();  // fresh knowledge: the computation is advancing
        prune_pool_covered();
      }
      break;
    }
  }
  continue_work();
}

void BnbWorker::on_timer(TimerKind kind, std::uint64_t gen) {
  if (halted_) return;
  switch (kind) {
    case TimerKind::kStep:
      if (gen != step_gen_ || !step_scheduled_) return;
      step_scheduled_ = false;
      do_step();
      break;
    case TimerKind::kReportFlush:
      if (gen != flush_gen_) return;
      flush_armed_ = false;
      // "...or the list has not been updated for a long time" — flush the
      // partial batch.
      send_report();
      continue_work();
      break;
    case TimerKind::kTableGossip:
      if (gen != gossip_gen_) return;
      send_table_gossip();
      env_->set_timer(TimerKind::kTableGossip, config_->table_gossip_interval,
                      ++gossip_gen_);
      continue_work();
      break;
    case TimerKind::kRequestTimeout:
      // The grant/deny never came: lost message, overloaded peer, or a
      // crashed one — indistinguishable by design (Section 4 assumptions).
      if (gen != request_gen_ || !request_outstanding_) return;
      request_outstanding_ = false;
      ++failed_attempts_;
      ++work_[WorkItem::kRequestTimeouts];
      continue_work();
      break;
    case TimerKind::kBackoff:
      if (gen != backoff_gen_) return;
      backoff_armed_ = false;
      continue_work();
      break;
  }
}

}  // namespace ftbb::core
