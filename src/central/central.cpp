#include "central/central.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/frame.hpp"
#include "core/messages.hpp"
#include "core/path_code.hpp"
#include "fault/driver.hpp"
#include "sim/kernel.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace ftbb::central {

namespace {

using core::PathCode;

// Honest wire pricing: the centralized baseline charges its traffic through
// the same frame encoding as the decentralized transports by sizing the
// Message-shaped frame each exchange would be. The protocol carries no
// report streams, so all frames are stateless (nullptr delta state).
std::size_t request_bytes() {
  core::Message m;
  m.type = core::MsgType::kWorkRequest;
  return core::frame_size(m, nullptr);
}

std::size_t batch_bytes(const std::vector<bnb::Subproblem>& batch) {
  core::Message m;
  m.type = core::MsgType::kWorkGrant;
  m.problems = batch;  // sizing only
  return core::frame_size(m, nullptr);
}

std::size_t conclude_bytes() {
  core::Message m;
  m.type = core::MsgType::kRootReport;
  m.codes = {PathCode::root()};
  return core::frame_size(m, nullptr);
}

struct Worker;

struct Batch {
  std::vector<bnb::Subproblem> problems;
  std::uint32_t worker = 0;
  double issued_at = 0.0;
};

/// The run, and its fault plane: a FaultDriver replays the schedule through
/// the capabilities below, in network ids (0 = the manager), with
/// injections on the kernel's control event stream.
struct Sim final : fault::IFaultBackend, fault::IFaultClock {
  const bnb::IProblemModel& model;
  CentralConfig cfg;
  sim::Kernel kernel;  // node 0 = manager, nodes 1..N = workers
  std::unique_ptr<sim::Network> net;
  std::vector<std::unique_ptr<Worker>> workers;
  double time_limit;

  // --- manager state (node 0) ---
  bool manager_alive = true;
  std::deque<bnb::Subproblem> pool;
  double incumbent = bnb::kInfinity;
  std::unordered_map<std::uint64_t, Batch> outstanding;
  std::uint64_t next_batch_id = 1;
  std::vector<std::uint32_t> waiting_workers;  // fetch requests with empty pool

  // --- checkpoint (stable storage survives the manager crash) ---
  struct Checkpoint {
    std::deque<bnb::Subproblem> pool;
    double incumbent = bnb::kInfinity;
    std::vector<Batch> outstanding;  // reissued wholesale on restart
  };
  std::optional<Checkpoint> checkpoint;

  bool concluded = false;
  double concluded_at = 0.0;
  bool failed = false;  // manager died without checkpointing

  // Expansion bookkeeping is per worker (merged at the end); these counters
  // are only ever touched in the manager's (node 0) context.
  std::uint64_t manager_messages = 0;
  std::uint64_t reissues = 0;
  std::uint64_t manager_restarts = 0;

  Sim(const bnb::IProblemModel& m, const CentralConfig& c, double limit,
      const sim::ExecutorConfig& ex)
      : model(m), cfg(c), kernel(ex), time_limit(limit) {}

  void manager_prune() {
    if (!cfg.enable_elimination) return;
    std::erase_if(pool, [this](const bnb::Subproblem& p) {
      return p.bound >= incumbent;
    });
  }

  void try_dispatch();
  void on_fetch(std::uint32_t worker);
  void on_result(std::uint64_t batch_id, double best,
                 std::vector<bnb::Subproblem> children);
  void maybe_conclude();
  void audit();
  void take_checkpoint();
  void crash_manager();
  void restart_manager();

  void crash(std::uint32_t node) override;
  void revive(std::uint32_t node) override;
  void join(std::uint32_t node) override;
  void abandon_join(std::uint32_t /*node*/) override {}
  void set_partition(const sim::Partition& partition) override {
    net->add_partition(partition);
  }
  void set_loss_rule(const sim::LossRule& rule) override {
    net->add_loss_rule(rule);
  }
  void call_at(double at, sim::Callback fn) override {
    kernel.at(at, std::move(fn));
  }
};

struct Worker {
  Sim* sim;
  std::uint32_t id;  // 1-based node id (0 is the manager)
  bool alive = true;
  bool busy = false;
  bool stopped = false;
  bool fetch_outstanding = false;
  double incumbent = bnb::kInfinity;
  /// Worker-context only; accounted when the run ends.
  sim::ExpansionLog expansions;
  /// Incarnation counter: closures belonging to a crashed incarnation must
  /// not resume after a revive (their batch state is stale).
  std::uint64_t epoch = 0;

  Worker(Sim* s, std::uint32_t i) : sim(s), id(i) {}

  [[nodiscard]] bool running() const { return alive && !stopped; }

  /// Fresh-process restart of a crashed worker (fault-injection hook). The
  /// previous incarnation's batch, if any, stays with the manager's audit.
  void revive() {
    if (alive || stopped) return;
    ++epoch;
    alive = true;
    busy = false;
    fetch_outstanding = false;
    incumbent = bnb::kInfinity;
    // A fetch the dead incarnation parked in the manager's waiting list
    // would combine with the fresh fetch below to hand this worker two
    // concurrent batches.
    std::erase(sim->waiting_workers, id);
    fetch();
  }

  void fetch() {
    if (!running() || busy || fetch_outstanding) return;
    fetch_outstanding = true;
    sim->net->send(id, 0, request_bytes(), sim->kernel.now(), [this] {
      ++sim->manager_messages;
      if (sim->manager_alive) sim->on_fetch(id);
    });
    // Fetches lost to a down manager are retried. Owner-tagged: the retry
    // must fire on this worker's shard even when fetch() ran as a control
    // event (a revive).
    sim->kernel.after(sim->cfg.reissue_timeout, static_cast<sim::OwnerId>(id),
                      [this, e = epoch] {
                        if (e == epoch && running() && fetch_outstanding) {
                          fetch_outstanding = false;
                          fetch();
                        }
                      });
  }

  void on_batch(std::uint64_t batch_id, std::vector<bnb::Subproblem> problems,
                double best) {
    if (!running()) return;
    // Never run two batch chains at once; a dropped batch stays in the
    // manager's outstanding ledger and is reissued by the audit.
    if (busy) return;
    fetch_outstanding = false;
    incumbent = std::min(incumbent, best);
    busy = true;
    process(batch_id, std::move(problems), {}, 0.0);
  }

  /// Expands the batch one node at a time, accumulating children; ships the
  /// result back when done.
  void process(std::uint64_t batch_id, std::vector<bnb::Subproblem> todo,
               std::vector<bnb::Subproblem> children, double /*elapsed*/) {
    if (!running()) return;
    if (todo.empty()) {
      busy = false;
      // The result carries the incumbent as of sending: the worker's own
      // field belongs to its shard, not the manager's.
      sim->net->send(id, 0, batch_bytes(children), sim->kernel.now(),
                     [this, batch_id, best = incumbent,
                      children = std::move(children)]() mutable {
                       ++sim->manager_messages;
                       if (sim->manager_alive) {
                         sim->on_result(batch_id, best, std::move(children));
                       }
                     });
      fetch();
      return;
    }
    bnb::Subproblem p = std::move(todo.back());
    todo.pop_back();
    if (sim->cfg.enable_elimination && p.bound >= incumbent) {
      process(batch_id, std::move(todo), std::move(children), 0.0);
      return;
    }
    const bnb::NodeEval eval = sim->model.eval(p.code);
    expansions.add(p.code, eval.cost);
    sim->kernel.after(
        eval.cost, static_cast<sim::OwnerId>(id),
        [this, batch_id, todo = std::move(todo),
         children = std::move(children), p = std::move(p), eval,
         e = epoch]() mutable {
          if (e != epoch || !running()) return;
          if (eval.feasible_leaf) {
            incumbent = std::min(incumbent, eval.value);
          } else {
            for (const bnb::ChildOut& child : eval.children) {
              if (child.infeasible) continue;
              if (sim->cfg.enable_elimination && child.bound >= incumbent) continue;
              children.push_back(bnb::Subproblem{
                  p.code.child(child.var, child.bit != 0), child.bound});
            }
          }
          process(batch_id, std::move(todo), std::move(children), 0.0);
        });
  }
};

void Sim::try_dispatch() {
  while (!waiting_workers.empty() && !pool.empty()) {
    const std::uint32_t w = waiting_workers.back();
    waiting_workers.pop_back();
    std::vector<bnb::Subproblem> batch;
    for (std::uint32_t i = 0; i < cfg.batch_size && !pool.empty(); ++i) {
      batch.push_back(std::move(pool.front()));
      pool.pop_front();
    }
    const std::uint64_t batch_id = next_batch_id++;
    outstanding.emplace(batch_id, Batch{batch, w, kernel.now()});
    Worker* worker = workers[w - 1].get();
    net->send(0, w, batch_bytes(batch), kernel.now(),
              [worker, batch_id, batch = std::move(batch), best = incumbent,
               e = worker->epoch] {
                // Batches addressed to a crashed incarnation are not handed
                // to its replacement; the audit will reissue them.
                if (e == worker->epoch) worker->on_batch(batch_id, batch, best);
              });
  }
}

void Sim::on_fetch(std::uint32_t worker) {
  waiting_workers.push_back(worker);
  try_dispatch();
  maybe_conclude();
}

void Sim::on_result(std::uint64_t batch_id, double best,
                    std::vector<bnb::Subproblem> children) {
  if (best < incumbent) {
    incumbent = best;
    manager_prune();
  }
  if (outstanding.erase(batch_id) == 0) {
    // Reissued batch answered twice; the duplicate's children are dropped —
    // safe because reissue re-derives them.
    return;
  }
  for (auto& child : children) {
    if (cfg.enable_elimination && child.bound >= incumbent) continue;
    pool.push_back(std::move(child));
  }
  try_dispatch();
  maybe_conclude();
}

void Sim::maybe_conclude() {
  if (concluded || !manager_alive) return;
  if (!pool.empty() || !outstanding.empty()) return;
  concluded = true;
  concluded_at = kernel.now();
  for (auto& w : workers) {
    net->send(0, w->id, conclude_bytes(), kernel.now(),
              [wp = w.get()] { wp->stopped = true; });
  }
}

void Sim::audit() {
  if (manager_alive && !concluded) {
    const double now = kernel.now();
    std::vector<std::uint64_t> expired;
    for (const auto& [batch_id, batch] : outstanding) {
      const Worker& w = *workers[batch.worker - 1];
      if (!w.alive || now - batch.issued_at > cfg.reissue_timeout * 4) {
        expired.push_back(batch_id);
      }
    }
    for (const std::uint64_t batch_id : expired) {
      Batch batch = outstanding.at(batch_id);
      outstanding.erase(batch_id);
      ++reissues;
      for (auto& p : batch.problems) pool.push_back(std::move(p));
    }
    if (!expired.empty()) try_dispatch();
  }
  if (!concluded && kernel.now() + cfg.audit_interval < time_limit) {
    kernel.after(cfg.audit_interval, sim::OwnerId{0}, [this] { audit(); });
  }
}

void Sim::take_checkpoint() {
  if (manager_alive && !concluded) {
    Checkpoint cp;
    cp.pool = pool;
    cp.incumbent = incumbent;
    for (const auto& [id, batch] : outstanding) cp.outstanding.push_back(batch);
    checkpoint = std::move(cp);
  }
  if (!concluded && kernel.now() + cfg.checkpoint_interval < time_limit) {
    kernel.after(cfg.checkpoint_interval, sim::OwnerId{0},
                 [this] { take_checkpoint(); });
  }
}

void Sim::crash_manager() {
  if (!manager_alive || concluded) return;
  manager_alive = false;
  if (!cfg.checkpointing) {
    failed = true;  // unrecoverable: the paper's single point of failure
    return;
  }
  // Manager state belongs to node 0's shard; the restart is a node-0 event.
  kernel.after(cfg.restart_delay, sim::OwnerId{0}, [this] { restart_manager(); });
}

void Sim::restart_manager() {
  ++manager_restarts;
  manager_alive = true;
  pool.clear();
  outstanding.clear();
  waiting_workers.clear();
  if (checkpoint.has_value()) {
    pool = checkpoint->pool;
    incumbent = checkpoint->incumbent;
    // Outstanding work at checkpoint time is simply requeued.
    for (const Batch& batch : checkpoint->outstanding) {
      for (const auto& p : batch.problems) pool.push_back(p);
    }
  } else {
    pool.push_back(bnb::Subproblem{PathCode::root(), model.root_bound()});
  }
  // Workers re-fetch on their own timeout cycle.
}

void Sim::crash(std::uint32_t node) {
  if (node == 0) {
    crash_manager();
  } else {
    workers[node - 1]->alive = false;
  }
}

void Sim::revive(std::uint32_t node) {
  FTBB_CHECK_MSG(node >= 1, "the manager cannot blank-restart; use checkpointing");
  workers[node - 1]->revive();
}

void Sim::join(std::uint32_t node) {
  if (node >= 1) workers[node - 1]->fetch();  // the manager starts with the run
}

}  // namespace

CentralResult CentralSim::run(const bnb::IProblemModel& model, std::uint32_t workers,
                              const CentralConfig& config, const sim::NetConfig& net,
                              fault::FaultSchedule faults, double time_limit,
                              std::uint64_t seed) {
  FTBB_CHECK(workers >= 1);
  faults.population = std::max(workers + 1, faults.population);
  const std::uint32_t worker_count = faults.population - 1;
  // Network node 0 is the manager; the topology's coordinates apply to the
  // shifted ids (workers start at rack coordinate of node 1).
  const sim::ExecutorConfig ex = sim::make_executor_config(
      net, faults.population, sim::resolve_sim_threads(config.sim_threads));
  Sim sim(model, config, time_limit, ex);
  support::Rng master(seed);
  sim.net = std::make_unique<sim::Network>(&sim.kernel, net, master.split(0x63656e74),
                                           faults.population);
  for (std::uint32_t i = 1; i <= worker_count; ++i) {
    sim.workers.push_back(std::make_unique<Worker>(&sim, i));
  }
  sim.pool.push_back(bnb::Subproblem{PathCode::root(), model.root_bound()});
  sim.kernel.after(config.audit_interval, sim::OwnerId{0}, [&sim] { sim.audit(); });
  if (config.checkpointing) {
    sim.kernel.after(config.checkpoint_interval, sim::OwnerId{0},
                     [&sim] { sim.take_checkpoint(); });
  }
  fault::FaultDriver driver(std::move(faults), &sim, &sim);
  driver.arm(time_limit);
  const auto kr = sim.kernel.run(time_limit);

  CentralResult result;
  result.completed = sim.concluded;
  result.solution = sim.incumbent;
  result.solution_found = sim.incumbent < bnb::kInfinity;
  result.makespan =
      sim.concluded ? sim.concluded_at : std::min(sim.kernel.now(), time_limit);
  result.hit_time_limit = kr.hit_time_limit;
  std::vector<const sim::ExpansionLog*> logs;
  for (const auto& w : sim.workers) logs.push_back(&w->expansions);
  result.account_expansions(logs);
  result.manager_messages = sim.manager_messages;
  result.reissues = sim.reissues;
  result.manager_restarts = sim.manager_restarts;
  result.net = sim.net->stats();
  result.fill_coarse_work();
  return result;
}

}  // namespace ftbb::central
