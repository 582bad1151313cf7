#include "dib/dib.hpp"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/frame.hpp"
#include "core/messages.hpp"
#include "core/path_code.hpp"
#include "dib/dib_pool.hpp"
#include "sim/baseline.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace ftbb::dib {

namespace {

using core::PathCode;

// Honest wire pricing through the shared frame encoding: each DIB exchange
// is sized as the Message-shaped frame it corresponds to. DIB has no report
// streams, so every frame is stateless (nullptr delta state).
std::size_t typed_bytes(core::MsgType type) {
  core::Message m;
  m.type = type;
  return core::frame_size(m, nullptr);
}

/// Donation: a one-problem kWorkGrant.
std::size_t donate_bytes(const bnb::Subproblem& sub) {
  core::Message m;
  m.type = core::MsgType::kWorkGrant;
  m.problems.push_back(sub);
  return core::frame_size(m, nullptr);
}

/// Completion report back to the donor: a one-code kWorkReport.
std::size_t completion_bytes(const PathCode& code) {
  core::Message m;
  m.type = core::MsgType::kWorkReport;
  m.codes = {code};
  return core::frame_size(m, nullptr);
}

/// Conclusion broadcast from the root machine: a kRootReport.
std::size_t conclude_bytes() {
  core::Message m;
  m.type = core::MsgType::kRootReport;
  m.codes = {PathCode::root()};
  return core::frame_size(m, nullptr);
}

struct Job {
  PathCode code;
  std::int32_t donor = -1;          // machine that donated it (-1: the root job)
  std::uint64_t donation_id = 0;    // donor-side ledger key
  std::uint64_t open_nodes = 0;     // nodes of this job still to process locally
  std::uint64_t unacked = 0;        // donations out of this job awaiting ack
  bool done = false;
};

struct Donation {
  Task task;
  std::uint32_t donee = 0;
  std::uint32_t job = 0;  // local job the task belongs to
  double sent_at = 0.0;
};

struct Machine;

/// The run: one network node per machine. The fault plane replays the
/// schedule through crash(), revive() and join().
struct Sim final : sim::BaselineSim {
  const bnb::IProblemModel& model;
  DibConfig cfg;
  std::vector<std::unique_ptr<Machine>> machines;

  double best = bnb::kInfinity;  // written by machine 0's context only
  bool best_found = false;

  Sim(const bnb::IProblemModel& m, const DibConfig& c, const sim::NetConfig& net,
      std::uint32_t nodes, double limit, support::Rng net_rng)
      : BaselineSim(net, nodes, c.sim_threads, net_rng, limit), model(m), cfg(c) {}

  void crash(std::uint32_t node) override;
  void revive(std::uint32_t node) override;
  void join(std::uint32_t node) override;
};

struct Machine {
  Sim* sim;
  std::uint32_t id;
  support::Rng rng;
  bool alive = true;
  bool joined = false;   // entered the membership (FaultDriver join)
  bool busy = false;
  bool stopped = false;  // computation concluded

  DibPool pool;
  std::vector<Job> jobs;
  std::unordered_map<std::uint64_t, Donation> ledger;
  std::uint64_t next_donation_id = 1;
  double incumbent = bnb::kInfinity;
  bool request_outstanding = false;
  std::uint64_t request_gen = 0;
  /// Incarnation counter: a crashed incarnation's expansion continuation and
  /// audit chain must not touch the replacement's (emptied) job list.
  std::uint64_t epoch = 0;

  Machine(Sim* s, std::uint32_t i, std::uint64_t seed) : sim(s), id(i), rng(seed) {}

  /// A machine that has not joined yet does nothing, not even answer a
  /// work request: it is not part of the computation until it arrives.
  [[nodiscard]] bool running() const { return alive && joined && !stopped; }

  /// Fresh restart of a crashed machine (fault-injection hook). Everything
  /// local is lost — including the ledger, so work this machine donated
  /// onward is redone by ITS donor, DIB's cascading-redo weakness.
  void revive() {
    if (alive || stopped || sim->concluded) return;
    ++epoch;
    ++sim->ledgers[id][core::WorkItem::kIncarnations];
    alive = true;
    busy = false;
    request_outstanding = false;
    pool.clear();
    jobs.clear();
    ledger.clear();
    incumbent = bnb::kInfinity;
    schedule_step();
    audit();
  }

  void absorb(double best) {
    if (best < incumbent) {
      incumbent = best;
      if (sim->cfg.enable_elimination) prune_pool();
    }
  }

  /// Eliminated pool entries leave their job's accounting immediately, in
  /// array order (the check_job cascade order is observable).
  void prune_pool() {
    pool.prune_at_least(incumbent,
                        [this](const Task& task) { node_finished(task.job); });
  }

  void node_finished(std::uint32_t job_index) {
    Job& job = jobs[job_index];
    FTBB_CHECK(job.open_nodes > 0);
    --job.open_nodes;
    check_job(job_index);
  }

  void check_job(std::uint32_t job_index) {
    Job& job = jobs[job_index];
    if (job.done || job.open_nodes > 0 || job.unacked > 0) return;
    job.done = true;
    if (job.donor < 0) {
      // The root job: the whole computation is finished (only machine 0 can
      // reach this). Broadcast the conclusion.
      sim->conclude();
      sim->best = incumbent;
      sim->best_found = incumbent < bnb::kInfinity;
      for (auto& m : sim->machines) {
        if (m->id != id) {
          sim->send(id, m->id, conclude_bytes(), [mp = m.get()] { mp->stopped = true; });
        }
      }
      stopped = true;
      return;
    }
    // Report completion to the machine the problem came from.
    const auto donor = static_cast<std::uint32_t>(job.donor);
    Machine* target = sim->machines[donor].get();
    sim->send(id, donor, completion_bytes(job.code),
              [target, donation_id = job.donation_id, best = incumbent] {
                target->on_completion_report(donation_id, best);
              });
  }

  void on_completion_report(std::uint64_t donation_id, double best) {
    if (!running()) return;
    absorb(best);
    const auto it = ledger.find(donation_id);
    if (it == ledger.end()) return;  // already presumed failed and redone
    const std::uint32_t job_index = it->second.job;
    ledger.erase(it);
    Job& job = jobs[job_index];
    FTBB_CHECK(job.unacked > 0);
    --job.unacked;
    check_job(job_index);
    schedule_step();
  }

  void schedule_step() {
    if (!running() || busy || pool.empty()) {
      if (running() && !busy && pool.empty()) seek_work();
      return;
    }
    busy = true;
    Task task = pool.pop_best();
    if (sim->cfg.enable_elimination && task.sub.bound >= incumbent) {
      node_finished(task.job);
      busy = false;
      schedule_step();
      return;
    }
    const bnb::NodeEval eval = sim->model.eval(task.sub.code);
    sim->note_expansion(id, task.sub.code, eval.cost);
    sim->kernel.after(eval.cost, static_cast<sim::OwnerId>(id),
                      [this, task = std::move(task), eval, e = epoch] {
      if (e != epoch) return;  // expansion begun by a crashed incarnation
      busy = false;
      if (!running()) return;
      apply_expansion(task, eval);
      schedule_step();
    });
  }

  void apply_expansion(const Task& task, const bnb::NodeEval& eval) {
    if (eval.feasible_leaf) {
      if (eval.value < incumbent) incumbent = eval.value;
      node_finished(task.job);
      return;
    }
    std::uint64_t pooled = 0;
    for (const bnb::ChildOut& child : eval.children) {
      if (child.infeasible) continue;
      if (sim->cfg.enable_elimination && child.bound >= incumbent) continue;
      pool.push(Task{
          bnb::Subproblem{task.sub.code.child(child.var, child.bit != 0), child.bound},
          task.job});
      ++pooled;
    }
    Job& job = jobs[task.job];
    job.open_nodes += pooled;
    node_finished(task.job);
  }

  void seek_work() {
    if (!running() || request_outstanding || !pool.empty()) return;
    if (sim->machines.size() < 2) return;
    std::uint32_t target = id;
    while (target == id) {
      target = static_cast<std::uint32_t>(rng.pick(sim->machines.size()));
    }
    request_outstanding = true;
    const std::uint64_t gen = ++request_gen;
    ++sim->ledgers[id][core::WorkItem::kWorkRequestsSent];
    Machine* peer = sim->machines[target].get();
    sim->send(id, target, typed_bytes(core::MsgType::kWorkRequest),
              [peer, from = id, best = incumbent] { peer->on_work_request(from, best); });
    const auto owner = static_cast<sim::OwnerId>(id);
    sim->kernel.after(sim->cfg.work_request_timeout, owner, [this, gen, owner] {
      if (!running() || !request_outstanding || gen != request_gen) return;
      request_outstanding = false;
      // Back off briefly; idle machines retry forever (DIB has no
      // complement — only donors can regenerate lost work).
      sim->kernel.after(sim->cfg.request_backoff, owner, [this] { seek_work(); });
    });
  }

  void on_work_request(std::uint32_t from, double best) {
    if (!running()) return;
    absorb(best);
    Machine* requester = sim->machines[from].get();
    if (pool.size() >= sim->cfg.min_pool_to_grant) {
      // Donate the shallowest task (largest subtree).
      Task task = pool.take_shallowest();
      const std::uint64_t donation_id = next_donation_id++;
      Job& job = jobs[task.job];
      FTBB_CHECK(job.open_nodes > 0);
      --job.open_nodes;  // the node now lives in the ledger, not the pool
      ++job.unacked;
      ++sim->ledgers[id][core::WorkItem::kGrantsGiven];
      ++sim->ledgers[id][core::WorkItem::kProblemsGiven];
      ledger.emplace(donation_id, Donation{task, from, task.job, sim->kernel.now()});
      // The subproblem rides boxed: its inline code buffer alone would push
      // the delivery past the kernel's pooled callback block.
      sim->send(id, from, donate_bytes(task.sub),
                [requester, sub = std::make_unique<bnb::Subproblem>(task.sub), donation_id,
                 donor = id, best = incumbent] {
                  requester->on_grant(*sub, donor, donation_id, best);
                });
    } else {
      sim->send(id, from, typed_bytes(core::MsgType::kWorkDeny),
                [requester, best = incumbent] { requester->on_deny(best); });
    }
  }

  void on_grant(const bnb::Subproblem& sub, std::uint32_t donor,
                std::uint64_t donation_id, double best) {
    if (!running()) return;
    ++sim->ledgers[id][core::WorkItem::kGrantsReceived];
    absorb(best);
    request_outstanding = false;
    jobs.push_back(Job{sub.code, static_cast<std::int32_t>(donor), donation_id, 1,
                       0, false});
    pool.push(Task{sub, static_cast<std::uint32_t>(jobs.size() - 1)});
    schedule_step();
  }

  void on_deny(double best) {
    if (!running()) return;
    ++sim->ledgers[id][core::WorkItem::kDeniesReceived];
    absorb(best);
    request_outstanding = false;
    sim->kernel.after(sim->cfg.request_backoff, static_cast<sim::OwnerId>(id),
                      [this] { seek_work(); });
  }

  /// Periodic failure-recovery audit: donations silent for too long are
  /// presumed lost and redone locally ("each machine can determine whether
  /// the work for which it is responsible is still unsolved, and can redo
  /// that work in the case of failure").
  void audit() {
    if (!running()) return;
    const double now = sim->kernel.now();
    std::vector<std::uint64_t> expired;
    for (const auto& [donation_id, donation] : ledger) {
      if (now - donation.sent_at > sim->cfg.donation_timeout) {
        expired.push_back(donation_id);
      }
    }
    for (const std::uint64_t donation_id : expired) {
      Donation donation = ledger.at(donation_id);
      ledger.erase(donation_id);
      ++sim->ledgers[id][core::WorkItem::kRecoveries];
      Job& job = jobs[donation.job];
      FTBB_CHECK(job.unacked > 0);
      --job.unacked;
      ++job.open_nodes;
      pool.push(donation.task);
    }
    if (!expired.empty()) schedule_step();
    sim->kernel.after(sim->cfg.audit_interval, static_cast<sim::OwnerId>(id),
                      [this, e = epoch] {
                        // Each incarnation runs its own audit chain; a revive
                        // starts a new one.
                        if (e == epoch) audit();
                      });
  }
};

void Sim::crash(std::uint32_t node) { machines[node]->alive = false; }

void Sim::revive(std::uint32_t node) { machines[node]->revive(); }

void Sim::join(std::uint32_t node) {
  Machine& machine = *machines[node];
  machine.joined = true;
  machine.schedule_step();
  machine.audit();
}

}  // namespace

DibResult DibSim::run(const bnb::IProblemModel& model, std::uint32_t machines,
                      const DibConfig& config, const sim::NetConfig& net,
                      fault::FaultSchedule faults, double time_limit,
                      std::uint64_t seed) {
  FTBB_CHECK(machines >= 1);
  FTBB_CHECK_MSG(faults.join_times.empty() || faults.join_times[0] == 0.0,
                 "machine 0 holds the root job and must join at time 0");
  faults.population = std::max(machines, faults.population);
  const support::Rng master(seed);
  Sim sim(model, config, net, faults.population, time_limit, master.split(0x646962));
  for (std::uint32_t i = 0; i < faults.population; ++i) {
    sim.machines.push_back(std::make_unique<Machine>(&sim, i, master.split(i).next()));
  }
  // Machine 0 holds the root of the responsibility hierarchy.
  Machine& root = *sim.machines[0];
  root.jobs.push_back(Job{PathCode::root(), -1, 0, 1, 0, false});
  root.pool.push(Task{bnb::Subproblem{PathCode::root(), model.root_bound()}, 0});
  DibResult result;
  sim.run(std::move(faults), result);
  result.completed = sim.concluded;
  result.solution = sim.best;
  result.solution_found = sim.best_found;
  return result;
}

}  // namespace ftbb::dib
