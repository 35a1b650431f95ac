// Shows that every check in checks.h can fail: each case starts from a
// consistent view, confirms the check passes, then doctors the view the
// way a real fault would and confirms the check trips. run.py runs this
// binary after every build and refuses to benchmark if it fails.

#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"

using perfbench::EntryKey;
using perfbench::LatencySummary;
using perfbench::ReplicaView;

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

uint64_t Id(int32_t client, uint64_t seq) {
  return (static_cast<uint64_t>(client) << 32) | seq;
}

// Index 1 is the leader's no-op; then two clients' requests.
std::vector<EntryKey> Log() {
  std::vector<EntryKey> log;
  log.push_back({1, 1, -1, 0});
  int64_t index = 2;
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    for (int32_t client : {10000, 10001}) {
      log.push_back({index++, 1, client, Id(client, seq)});
    }
  }
  return log;
}

std::vector<uint64_t> Acked() {
  return {Id(10000, 1), Id(10001, 1), Id(10000, 2)};
}

std::vector<ReplicaView> Replicas() {
  std::vector<ReplicaView> replicas;
  for (int r = 0; r < 3; ++r) {
    replicas.push_back({r, Log(), 7, "state"});
  }
  return replicas;
}

}  // namespace

int main() {
  // Durability: an acked id removed from the new leader's log view.
  Expect(perfbench::CheckDurability(Acked(), Log()).empty(),
         "durability holds on a consistent view");
  {
    std::vector<EntryKey> log = Log();
    log.erase(log.begin() + 2);  // Id(10001, 1), which was acked.
    Expect(!perfbench::CheckDurability(Acked(), log).empty(),
           "durability trips when an acked id is missing from the log");
  }

  // Agreement: one replica's entry term changed.
  Expect(perfbench::CheckAgreement(Replicas()).empty(),
         "agreement holds on a consistent view");
  {
    std::vector<ReplicaView> replicas = Replicas();
    replicas[1].committed[3].term = 2;
    Expect(!perfbench::CheckAgreement(replicas).empty(),
           "agreement trips when one replica's entry term differs");
  }
  {
    std::vector<ReplicaView> replicas = Replicas();
    replicas[2].committed.resize(4);  // A shorter prefix still agrees.
    Expect(perfbench::CheckAgreement(replicas).empty(),
           "agreement holds for a shorter but matching prefix");
  }

  // Snapshots: one replica's snapshot differs; one replica lags.
  Expect(perfbench::CheckSnapshots(Replicas()).empty(),
         "snapshots hold on a consistent view");
  {
    std::vector<ReplicaView> replicas = Replicas();
    replicas[2].snapshot = "other";
    Expect(!perfbench::CheckSnapshots(replicas).empty(),
           "snapshots trip when one replica's snapshot differs");
  }
  {
    std::vector<ReplicaView> replicas = Replicas();
    replicas[0].applied_index = 6;
    Expect(!perfbench::CheckSnapshots(replicas).empty(),
           "snapshots trip when one replica lags");
  }

  // Accounting: an acked id the log never saw; completed above issued.
  Expect(perfbench::CheckAccounting(Acked(), Log(), 3, 6).empty(),
         "accounting holds on a consistent view");
  {
    std::vector<uint64_t> acked = Acked();
    acked.push_back(Id(10002, 1));
    Expect(!perfbench::CheckAccounting(acked, Log(), 4, 6).empty(),
           "accounting trips on an acked id outside the log");
  }
  Expect(!perfbench::CheckAccounting(Acked(), Log(), 7, 6).empty(),
         "accounting trips when completed exceeds issued");

  // Method: a weak accept counted under Raft; Raft ack != commit latency;
  // NB-Raft ack median above its commit median.
  const LatencySummary same{100, 5e8, 4e6, 9e6};
  Expect(perfbench::CheckMethod(false, 0, same, same).empty(),
         "method holds for Raft with equal distributions");
  Expect(!perfbench::CheckMethod(false, 1, same, same).empty(),
         "method trips on a weak accept under Raft");
  {
    LatencySummary ack = same;
    ack.p99 = 8e6;
    Expect(!perfbench::CheckMethod(false, 0, ack, same).empty(),
           "method trips when Raft ack latency differs from commit");
  }
  const LatencySummary fast{100, 1e8, 1e6, 2e6};
  Expect(perfbench::CheckMethod(true, 100, fast, same).empty(),
         "method holds for NB-Raft with ack p50 below commit p50");
  Expect(!perfbench::CheckMethod(true, 100, same, fast).empty(),
         "method trips when NB-Raft ack p50 exceeds commit p50");

  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
