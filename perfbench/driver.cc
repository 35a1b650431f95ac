// Ingest-path benchmark driver: runs a pool of independent closed-loop
// clusters one after another in this process (no worker threads) and
// prints one JSON object with every measurement. run.py chooses the plan,
// builds this binary from the checkout's src/ and turns the object into
// the benchmark's result line.
//
// Each cluster: build + elect, warm up, one measured window, settle until
// the window's operations are strongly acked, one scripted leader
// failover, stop clients, drain until every replica has applied
// everything, check. Virtual-time metrics are exact for a given (seed,
// plan); host-time metrics come from CLOCK_PROCESS_CPUTIME_ID,
// CLOCK_MONOTONIC (spans only) and getrusage.
//
// Usage: perfbench_driver --protocol nbraft|raft --disk 0|1 --seed N
//          --clusters K

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "harness/cluster.h"
#include "metrics/breakdown.h"
#include "metrics/histogram.h"
#include "tsdb/state_machine.h"

using namespace nbraft;

namespace {

struct Plan {
  bool nbraft = true;
  bool disk = false;
  uint64_t seed = 1;
  int clusters = 1;
};

// Virtual-time lengths of a cluster's steps, the same in every workload.
// Settling and draining end early once their condition holds.
constexpr SimDuration kWarmup = Millis(250);
constexpr SimDuration kWindow = Millis(100);
/// Host time is sampled from this long before the window to its end: the
/// disk workload's cost comes in cycles of 100-200 ms (see README.md).
constexpr SimDuration kHostLead = Millis(100);
constexpr SimDuration kSettleLimit = Seconds(2);
constexpr SimDuration kDrainLimit = Seconds(5);

/// Longest virtual time one failover may take before the run is declared
/// broken (the clients' resend backoff caps at 8 s).
constexpr SimDuration kFailoverLimit = Seconds(60);
/// Resolution of the failover clock.
constexpr SimDuration kPollStep = Micros(100);

/// Operations per cluster: each client's first kOpsPerClient requests
/// issued from the start of the measured window, plus the replicas'
/// snapshot agreement after the drain. A fixed count keeps the share of
/// failed operations independent of seed and run length. In trials every
/// Raft client issued 13 or more requests in a window; under NB-Raft a
/// client waiting on a resend issued as few as one, and its later
/// operations are issued in the settle step, still before the crash.
constexpr uint64_t kOpsPerClient = 8;

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}
double Cpu() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double Mono() { return ClockSeconds(CLOCK_MONOTONIC); }

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Seed of the run's c-th cluster. It does not depend on the workload, so
/// the three workloads run matched clusters for one workload seed.
uint64_t ClusterSeed(uint64_t seed, int c) {
  return SplitMix64(SplitMix64(seed) + static_cast<uint64_t>(c));
}

/// Value at 1-based rank `t` of the histogram's ordered samples (the lower
/// bound of the bucket holding it).
int64_t RankValue(const metrics::Histogram& h, uint64_t t) {
  const uint64_t n = h.count();
  if (n <= 1) return h.ValueAtQuantile(0.0);
  return h.ValueAtQuantile((static_cast<double>(t) - 0.5) /
                           static_cast<double>(n - 1));
}

/// Quantile of a log-bucketed histogram, interpolated linearly by rank
/// inside the bucket that holds it (the histogram itself only returns the
/// bucket's lower bound, a 3-6% step).
double Quantile(const metrics::Histogram& h, double q) {
  const uint64_t n = h.count();
  if (n == 0) return 0.0;
  const uint64_t t =
      static_cast<uint64_t>(q * static_cast<double>(n - 1)) + 1;
  const int64_t lo = RankValue(h, t);
  uint64_t a = 1, b = t;  // First rank whose value is `lo`.
  while (a < b) {
    const uint64_t mid = a + (b - a) / 2;
    if (RankValue(h, mid) < lo) a = mid + 1; else b = mid;
  }
  const uint64_t first = a;
  a = t;
  b = n;  // Last rank whose value is `lo`.
  while (a < b) {
    const uint64_t mid = a + (b - a + 1) / 2;
    if (RankValue(h, mid) > lo) b = mid - 1; else a = mid;
  }
  const uint64_t last = a;
  int64_t width = 1;
  if (lo >= 16) width = int64_t{1} << (63 - std::countl_zero(
                                            static_cast<uint64_t>(lo)) - 4);
  const double v =
      static_cast<double>(lo) +
      static_cast<double>(width) * (static_cast<double>(t - first) + 0.5) /
          static_cast<double>(last - first + 1);
  return std::clamp(v, static_cast<double>(h.min()),
                    static_cast<double>(h.max()));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double HarmonicMean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0;
  for (const double x : v) sum += 1.0 / x;
  return static_cast<double>(v.size()) / sum;
}

/// Counters summed over a cluster's measured windows (and, for the pooled
/// run, over clusters).
struct Totals {
  double window_s = 0;     ///< Virtual seconds measured.
  uint64_t committed = 0;  ///< Requests strongly acked in the windows.
  uint64_t leader_entries = 0;  ///< Entries the leader committed.
  uint64_t events = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t append_rpcs = 0;
  uint64_t rpc_timeouts = 0;
  uint64_t retries = 0;
  uint64_t weak_accepts = 0;
  uint64_t window_inserts = 0;
  uint64_t window_overflows = 0;
  uint64_t fsyncs = 0;
  uint64_t disk_bytes = 0;
  uint64_t points = 0;
  SimDuration phase[metrics::kNumPhases] = {};
};

/// Per-node counters at the start of a window.
struct NodeMark {
  raft::NodeStats stats;
  uint64_t points = 0;
};

uint64_t IngestedPoints(const raft::RaftNode* node) {
  const auto* sm =
      dynamic_cast<const tsdb::TsdbStateMachine*>(&node->state_machine());
  return sm == nullptr ? 0 : sm->ingested_points();
}

std::vector<perfbench::EntryKey> CommittedView(const raft::RaftNode* node) {
  std::vector<perfbench::EntryKey> out;
  const storage::RaftLog& log = node->log();
  const storage::LogIndex upto =
      std::min(node->commit_index(), log.LastIndex());
  out.reserve(static_cast<size_t>(std::max<int64_t>(upto, 0)));
  for (storage::LogIndex i = log.FirstIndex(); i <= upto; ++i) {
    const storage::LogEntry& e = log.AtUnchecked(i);
    out.push_back({e.index, e.term, e.client_id, e.request_id});
  }
  return out;
}

std::vector<uint64_t> StrongAcked(harness::Cluster& cluster) {
  std::vector<uint64_t> ids;
  for (int i = 0; i < cluster.num_clients(); ++i) {
    const auto& acked = cluster.client(i)->strong_acked_ids();
    ids.insert(ids.end(), acked.begin(), acked.end());
  }
  return ids;
}

/// True once `leader` has committed a client request of its own term.
bool CommittedOwnRequest(const raft::RaftNode* leader) {
  const storage::RaftLog& log = leader->log();
  for (storage::LogIndex i = std::min(leader->commit_index(), log.LastIndex());
       i >= log.FirstIndex(); --i) {
    const storage::LogEntry& e = log.AtUnchecked(i);
    if (e.term < leader->current_term()) return false;
    if (e.client_id >= perfbench::kFirstClientId) return true;
  }
  return false;
}

struct Spans {
  double elect = 0, warmup = 0, measure = 0, failover = 0, drain = 0,
         checks = 0;
};

struct RunState {
  Plan plan;
  Totals totals;
  metrics::Histogram ack;
  metrics::Histogram commit;
  std::vector<double> failover_ms, election_ms, resume_ms;
  double host_cpu_s = 0;   ///< Process CPU seconds of the host spans.
  uint64_t host_reqs = 0;  ///< Requests strongly acked in those spans.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t events_total = 0;
  double setup_s = -1;  ///< Process CPU seconds until the first window.
  Spans spans;
  std::vector<std::string> errors;
};

void RunCluster(RunState* run, int c) {
  const Plan& plan = run->plan;
  harness::ClusterConfig config;
  config.num_nodes = 3;
  config.num_clients = 256;
  config.client_think = Micros(5);
  config.payload_size = 4096;
  config.protocol = plan.nbraft ? raft::Protocol::kNbRaft
                                : raft::Protocol::kRaft;
  config.record_client_acks = true;  // The durability check needs them.
  config.seed = ClusterSeed(plan.seed, c);
  if (plan.disk) {
    config.disk.enabled = true;
    config.disk.write_latency = Micros(2);
    config.disk.fsync_latency = Micros(100);
    config.disk.group_commit = true;
    config.disk.fault_seed = config.seed;
  }
  const std::string where = "cluster " + std::to_string(c) + ": ";

  double t = Mono();
  std::vector<std::pair<storage::Term, SimTime>> elected;  // Outlives cluster.
  harness::Cluster cluster(config);
  for (int r = 0; r < cluster.num_nodes(); ++r) {
    cluster.node(r)->add_leader_observer(
        [&elected, &cluster](storage::Term term, net::NodeId) {
          elected.emplace_back(term, cluster.sim()->Now());
        });
  }
  cluster.Start();
  if (!cluster.AwaitLeader()) {
    run->errors.push_back(where + "no initial leader");
    return;
  }
  run->spans.elect += Mono() - t;

  const auto completed = [&cluster]() {
    uint64_t n = 0;
    for (int i = 0; i < cluster.num_clients(); ++i) {
      n += cluster.client(i)->stats().requests_completed;
    }
    return n;
  };
  t = Mono();
  cluster.StartClients();
  cluster.RunFor(kWarmup - kHostLead);
  const double host_cpu0 = Cpu();
  const uint64_t host_done0 = completed();
  cluster.RunFor(kHostLead);
  run->spans.warmup += Mono() - t;

  // ---- Measured window ----
  raft::RaftNode* leader = cluster.leader();
  if (leader == nullptr) {
    run->errors.push_back(where + "no leader after warm-up");
    return;
  }
  const storage::Term window_term = leader->current_term();
  std::vector<uint64_t> seq0(static_cast<size_t>(cluster.num_clients()));
  for (int i = 0; i < cluster.num_clients(); ++i) {
    seq0[static_cast<size_t>(i)] = cluster.client(i)->requests_issued_total();
  }
  std::vector<NodeMark> marks;
  for (int r = 0; r < cluster.num_nodes(); ++r) {
    marks.push_back(
        {cluster.node(r)->stats(), IngestedPoints(cluster.node(r))});
  }
  const net::NetStats net0 = cluster.network()->stats();
  const uint64_t events0 = cluster.sim()->events_processed();
  // Completions the clients counted before ResetMeasurement() zeroes them.
  const uint64_t completed_before = completed();
  cluster.ResetMeasurement();
  if (run->setup_s < 0) run->setup_s = Cpu();

  t = Mono();
  cluster.RunFor(kWindow);
  const double cpu1 = Cpu();
  run->spans.measure += Mono() - t;

  Totals& tot = run->totals;
  const uint64_t committed0 = tot.committed;
  tot.window_s += ToSeconds(kWindow);
  tot.events += cluster.sim()->events_processed() - events0;
  const net::NetStats& net1 = cluster.network()->stats();
  tot.messages += net1.messages_sent - net0.messages_sent;
  tot.bytes += net1.bytes_sent - net0.bytes_sent;
  metrics::Histogram ack, commit;
  uint64_t weak = 0;
  for (int i = 0; i < cluster.num_clients(); ++i) {
    const raft::ClientStats& cs = cluster.client(i)->stats();
    tot.committed += cs.requests_completed;
    tot.retries += cs.retries;
    weak += cs.weak_accepts;
    ack.Merge(cs.unblock_latency);
    commit.Merge(cs.completion_latency);
  }
  tot.weak_accepts += weak;
  if (cluster.leader() != leader || leader->current_term() != window_term) {
    run->errors.push_back(where + "leader changed inside the window");
  }
  for (int r = 0; r < cluster.num_nodes(); ++r) {
    const raft::NodeStats& now = cluster.node(r)->stats();
    const raft::NodeStats& was = marks[static_cast<size_t>(r)].stats;
    if (cluster.node(r) == leader) {
      tot.leader_entries += now.entries_committed - was.entries_committed;
    }
    tot.append_rpcs += now.append_rpcs_sent - was.append_rpcs_sent;
    tot.rpc_timeouts += now.rpc_timeouts - was.rpc_timeouts;
    tot.window_inserts += now.window_inserts - was.window_inserts;
    tot.window_overflows += now.window_overflows - was.window_overflows;
    tot.fsyncs += now.fsyncs_completed - was.fsyncs_completed;
    tot.disk_bytes += now.disk_bytes_written - was.disk_bytes_written;
    tot.points +=
        IngestedPoints(cluster.node(r)) - marks[static_cast<size_t>(r)].points;
    for (int p = 0; p < metrics::kNumPhases; ++p) {
      const auto phase = static_cast<metrics::Phase>(p);
      tot.phase[p] += now.breakdown.total(phase) - was.breakdown.total(phase);
    }
  }
  run->ack.Merge(ack);
  run->commit.Merge(commit);
  const std::string method = perfbench::CheckMethod(
      plan.nbraft, weak,
      {ack.count(), ack.Sum(), Quantile(ack, 0.5), Quantile(ack, 0.99)},
      {commit.count(), commit.Sum(), Quantile(commit, 0.5),
       Quantile(commit, 0.99)});
  if (!method.empty()) run->errors.push_back(where + method);
  const uint64_t window_reqs = tot.committed - committed0;
  const uint64_t host_reqs = completed_before - host_done0 + window_reqs;
  run->host_cpu_s += cpu1 - host_cpu0;
  run->host_reqs += host_reqs;
  std::fprintf(stderr,
               "cluster %d: %llu committed in the window, ack p50 %.3f ms, "
               "commit p50 %.3f ms; %llu requests in %.6f s CPU\n",
               c, static_cast<unsigned long long>(window_reqs),
               Quantile(ack, 0.5) / kMillisecond,
               Quantile(commit, 0.5) / kMillisecond,
               static_cast<unsigned long long>(host_reqs), cpu1 - host_cpu0);

  // ---- Settle until every operation's request is strongly acked ----
  t = Mono();
  std::vector<uint64_t> next_unacked(seq0);
  for (uint64_t& n : next_unacked) ++n;
  const auto all_acked = [&]() {
    for (int i = 0; i < cluster.num_clients(); ++i) {
      const auto& acked = cluster.client(i)->strong_acked_ids();
      const uint64_t base = static_cast<uint64_t>(cluster.client(i)->id())
                            << 32;
      const uint64_t last = seq0[static_cast<size_t>(i)] + kOpsPerClient;
      uint64_t& n = next_unacked[static_cast<size_t>(i)];
      while (n <= last && acked.count(base | n) != 0) ++n;
      if (n <= last) return false;
    }
    return true;
  };
  const SimTime settle_end = cluster.sim()->Now() + kSettleLimit;
  while (!all_acked() && cluster.sim()->Now() < settle_end) {
    cluster.RunFor(Millis(1));
  }
  run->spans.drain += Mono() - t;
  for (int i = 0; i < cluster.num_clients(); ++i) {
    raft::RaftClient* client = cluster.client(i);
    const auto& acked = client->strong_acked_ids();
    const uint64_t base = static_cast<uint64_t>(client->id()) << 32;
    for (uint64_t s = seq0[static_cast<size_t>(i)] + 1;
         s <= seq0[static_cast<size_t>(i)] + kOpsPerClient; ++s) {
      ++run->attempted;
      if (acked.count(base | s) == 0) ++run->failed;
    }
  }

  // ---- Scripted failover: crash the leader, run until the new leader
  // commits a client request, restart the old node. One per cluster: a
  // second crash soon after the restart measures a different, much longer
  // stall (see README.md). ----
  t = Mono();
  if (cluster.leader() == nullptr) {
    run->errors.push_back(where + "no leader before the crash");
    return;
  }
  const std::vector<uint64_t> acked_before = StrongAcked(cluster);
  const storage::Term old_term = cluster.leader()->current_term();
  const SimTime crashed_at = cluster.sim()->Now();
  const int victim = cluster.CrashLeader();
  raft::RaftNode* fresh = nullptr;
  while (fresh == nullptr &&
         cluster.sim()->Now() - crashed_at < kFailoverLimit) {
    cluster.RunFor(kPollStep);
    raft::RaftNode* l = cluster.leader();
    if (l != nullptr && l->current_term() > old_term &&
        CommittedOwnRequest(l)) {
      fresh = l;
    }
  }
  if (fresh == nullptr) {
    run->errors.push_back(where + "no request committed after the crash");
    return;
  }
  const SimTime served_at = cluster.sim()->Now();
  SimTime elected_at = served_at;
  for (const auto& [term, when] : elected) {
    if (term > old_term && when >= crashed_at) {
      elected_at = std::min(elected_at, when);
    }
  }
  run->failover_ms.push_back(
      static_cast<double>(served_at - crashed_at) / kMillisecond);
  run->election_ms.push_back(
      static_cast<double>(elected_at - crashed_at) / kMillisecond);
  run->resume_ms.push_back(
      static_cast<double>(served_at - elected_at) / kMillisecond);
  std::fprintf(stderr,
               "cluster %d: node %d crashed, new leader after %.1f ms, "
               "first commit after %.1f ms\n",
               c, victim, run->election_ms.back(), run->failover_ms.back());
  const std::string durable =
      perfbench::CheckDurability(acked_before, CommittedView(fresh));
  if (!durable.empty()) run->errors.push_back(where + durable);
  cluster.RestartNode(victim);
  run->spans.failover += Mono() - t;

  // ---- Stop, drain, check ----
  t = Mono();
  cluster.StopAllClients();
  // Run until every replica, the restarted one too, has applied all the
  // leader committed.
  const auto converged = [&cluster]() {
    const raft::RaftNode* l = cluster.leader();
    if (l == nullptr) return false;
    for (int r = 0; r < cluster.num_nodes(); ++r) {
      const raft::RaftNode* node = cluster.node(r);
      if (node->crashed() || node->applied_index() < l->commit_index()) {
        return false;
      }
    }
    return true;
  };
  const SimTime drain_end = cluster.sim()->Now() + kDrainLimit;
  do {
    cluster.RunFor(Millis(1));
  } while (!converged() && cluster.sim()->Now() < drain_end);
  run->spans.drain += Mono() - t;

  t = Mono();
  std::vector<perfbench::ReplicaView> views;
  for (int r = 0; r < cluster.num_nodes(); ++r) {
    const raft::RaftNode* node = cluster.node(r);
    if (node->crashed()) continue;
    views.push_back({r, CommittedView(node), node->applied_index(),
                     node->state_machine().Snapshot()});
  }
  const std::string agree = perfbench::CheckAgreement(views);
  if (!agree.empty()) run->errors.push_back(where + agree);
  // The replicas' state after the failover is the cluster's last operation.
  const std::string same = perfbench::CheckSnapshots(views);
  ++run->attempted;
  if (!same.empty()) {
    ++run->failed;
    std::fprintf(stderr, "%sfailed operation: %s\n", where.c_str(),
                 same.c_str());
  }
  raft::RaftNode* last = cluster.leader();
  if (last == nullptr) {
    run->errors.push_back(where + "no leader after drain");
  } else {
    const std::string acct = perfbench::CheckAccounting(
        StrongAcked(cluster), CommittedView(last),
        completed_before + completed(), cluster.TotalRequestsIssued());
    if (!acct.empty()) run->errors.push_back(where + acct);
  }
  run->events_total += cluster.sim()->events_processed();
  run->spans.checks += Mono() - t;
}

bool ParseArgs(int argc, char** argv, Plan* plan) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--protocol") {
      if (std::strcmp(v, "nbraft") == 0) plan->nbraft = true;
      else if (std::strcmp(v, "raft") == 0) plan->nbraft = false;
      else return false;
    } else if (key == "--disk") {
      plan->disk = std::atoi(v) != 0;
    } else if (key == "--seed") {
      plan->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--clusters") {
      plan->clusters = std::atoi(v);
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && plan->clusters >= 1;
}

void Field(std::string* out, const char* name, double value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%.17g", out->size() > 1 ? "," : "",
                name, value);
  *out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  RunState run;
  if (!ParseArgs(argc, argv, &run.plan)) {
    std::fprintf(stderr, "usage: see the header of perfbench/driver.cc\n");
    return 2;
  }

  for (int c = 0; c < run.plan.clusters; ++c) RunCluster(&run, c);

  const Totals& t = run.totals;
  const double reqs = static_cast<double>(std::max<uint64_t>(t.committed, 1));
  const double entries =
      static_cast<double>(std::max<uint64_t>(t.leader_entries, 1));
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  std::string m = "{";
  Field(&m, "throughput_kops", static_cast<double>(t.committed) /
                                   std::max(t.window_s, 1e-9) / 1000.0);
  Field(&m, "ack_latency_p50_ms", Quantile(run.ack, 0.5) / kMillisecond);
  Field(&m, "ack_latency_p99_ms", Quantile(run.ack, 0.99) / kMillisecond);
  Field(&m, "commit_latency_p50_ms", Quantile(run.commit, 0.5) / kMillisecond);
  Field(&m, "commit_latency_p99_ms",
        Quantile(run.commit, 0.99) / kMillisecond);
  // Harmonic mean, not median, over crashes: the per-crash values pile up
  // at the clients' 1.5 s resend timeout and spread to several seconds
  // above it, so a median jumps between the pile and the tail, and an
  // arithmetic or geometric mean follows the rare stall of 10 s or more.
  // One crash of any length moves a harmonic mean of n by at most 1/(n-1).
  Field(&m, "failover_ms", HarmonicMean(run.failover_ms));
  // One ratio pooled over the run's host spans: a cluster's cost follows
  // its seed (100-290 us per request on the disk workload), and a pooled
  // ratio averages the seeds where a low quantile follows the cheapest.
  Field(&m, "host_us_per_req",
        run.host_cpu_s * 1e6 /
            static_cast<double>(std::max<uint64_t>(run.host_reqs, 1)));
  Field(&m, "peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  Field(&m, "setup_s", run.setup_s);
  Field(&m, "sim.events_per_req", static_cast<double>(t.events) / reqs);
  Field(&m, "net.msgs_per_req", static_cast<double>(t.messages) / reqs);
  Field(&m, "net.kb_per_req", static_cast<double>(t.bytes) / 1024.0 / reqs);
  Field(&m, "raft.append_rpcs_per_entry",
        static_cast<double>(t.append_rpcs) / entries);
  Field(&m, "raft.rpc_timeouts", static_cast<double>(t.rpc_timeouts));
  Field(&m, "client.retries", static_cast<double>(t.retries));
  Field(&m, "raft.election_ms", Mean(run.election_ms));
  Field(&m, "client.resume_ms", Mean(run.resume_ms));
  Field(&m, "nbraft.weak_accepts_per_req",
        static_cast<double>(t.weak_accepts) / reqs);
  Field(&m, "nbraft.window_inserts_per_entry",
        static_cast<double>(t.window_inserts) / entries);
  Field(&m, "nbraft.window_overflows", static_cast<double>(t.window_overflows));
  Field(&m, "storage.fsyncs_per_kentry",
        static_cast<double>(t.fsyncs) * 1000.0 / entries);
  Field(&m, "storage.disk_kb_per_entry",
        static_cast<double>(t.disk_bytes) / 1024.0 / entries);
  Field(&m, "tsdb.points_per_req", static_cast<double>(t.points) / reqs);
  static const std::pair<metrics::Phase, const char*> kPhases[] = {
      {metrics::Phase::kTransClientLeader, "phase.t_trans_cl_us"},
      {metrics::Phase::kParse, "phase.t_prs_us"},
      {metrics::Phase::kIndex, "phase.t_idx_us"},
      {metrics::Phase::kQueue, "phase.t_queue_us"},
      {metrics::Phase::kTransLeaderFollower, "phase.t_trans_lf_us"},
      {metrics::Phase::kWaitFollower, "phase.t_wait_us"},
      {metrics::Phase::kAppendFollower, "phase.t_append_us"},
      {metrics::Phase::kCommit, "phase.t_commit_us"},
      {metrics::Phase::kApply, "phase.t_apply_us"},
      {metrics::Phase::kFsync, "phase.t_fsync_us"},
  };
  for (const auto& [phase, name] : kPhases) {
    Field(&m, name,
          static_cast<double>(t.phase[static_cast<int>(phase)]) /
              kMicrosecond / entries);
  }
  Field(&m, "span.elect_s", run.spans.elect);
  Field(&m, "span.warmup_s", run.spans.warmup);
  Field(&m, "span.measure_s", run.spans.measure);
  Field(&m, "span.failover_s", run.spans.failover);
  Field(&m, "span.drain_s", run.spans.drain);
  Field(&m, "span.checks_s", run.spans.checks);
  Field(&m, "events_total", static_cast<double>(run.events_total));
  Field(&m, "ack_samples", static_cast<double>(run.ack.count()));
  Field(&m, "commit_samples", static_cast<double>(run.commit.count()));
  Field(&m, "crashes", static_cast<double>(run.failover_ms.size()));
  m += "}";

  for (const std::string& e : run.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"errors\":%zu,\"metrics\":%s}\n",
              run.errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed), run.errors.size(),
              m.c_str());
  return 0;
}
