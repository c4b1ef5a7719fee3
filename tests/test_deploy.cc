// Multi-process deployment tests (docs/deployment.md).
//
// Covers the bootstrap wire protocol (serde round trips, version/magic
// rejection), the coordinator/worker handshake state machines run
// in-process over real loopback TCP, a Cluster formed over deployment-mode
// workers producing output bit-identical to the in-process emulation, and —
// the real thing — eclipse-coordinator and eclipse-worker spawned as
// subprocesses running wordcount, with the printed output fingerprint
// checked against an in-process run of the same corpus.
//
// The flag-catalog case enforces the docs/deployment.md contract: every
// `--flag` the handbook mentions must exist in one of the binaries' --help
// tables (rendered from apps::WorkerFlagSet/CoordinatorFlagSet — the same
// tables the binaries print), and every table flag must be documented.
#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/deploy_cli.h"
#include "apps/wordcount.h"
#include "common/rng.h"
#include "mr/cluster.h"
#include "mr/deployment.h"
#include "mr/worker_host.h"
#include "net/bootstrap.h"
#include "net/retry.h"
#include "net/tcp_transport.h"
#include "workload/generators.h"

namespace eclipse {
namespace {

namespace deploy = net::deploy;
using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Wire protocol

TEST(DeploySerde, HelloRoundTrip) {
  deploy::Hello in;
  in.desired_node = 7;
  in.advertise_host = "10.1.2.3";
  deploy::Hello out;
  ASSERT_TRUE(deploy::DecodeHello(deploy::EncodeHello(in), &out));
  EXPECT_EQ(out.magic, deploy::kProtocolMagic);
  EXPECT_EQ(out.version, deploy::kProtocolVersion);
  EXPECT_EQ(out.desired_node, 7);
  EXPECT_EQ(out.advertise_host, "10.1.2.3");
}

TEST(DeploySerde, WelcomeRoundTripWithRingAndPeers) {
  deploy::Welcome in;
  in.node = 3;
  in.cache_capacity = 128ull << 20;
  in.replication = 3;
  in.vnodes = 4;
  in.finger_entries = 8;
  in.scheduler_epoch = 42;
  in.ring = {{0, HashKey{111}}, {1, HashKey{222}}, {0, HashKey{333}}};
  in.peers = {{0, "hostA", 1234}, {1, "hostB", 5678}};
  deploy::Welcome out;
  ASSERT_TRUE(deploy::DecodeWelcome(deploy::EncodeWelcome(in), &out));
  EXPECT_EQ(out.node, 3);
  EXPECT_EQ(out.cache_capacity, 128ull << 20);
  EXPECT_EQ(out.replication, 3u);
  EXPECT_EQ(out.vnodes, 4u);
  EXPECT_EQ(out.finger_entries, 8u);
  EXPECT_EQ(out.scheduler_epoch, 42u);
  ASSERT_EQ(out.ring.size(), 3u);
  EXPECT_EQ(out.ring[2].server, 0);
  EXPECT_EQ(out.ring[2].position, HashKey{333});
  ASSERT_EQ(out.peers.size(), 2u);
  EXPECT_EQ(out.peers[1].node, 1);
  EXPECT_EQ(out.peers[1].host, "hostB");
  EXPECT_EQ(out.peers[1].port, 5678);
}

TEST(DeploySerde, RemainingMessagesRoundTrip) {
  deploy::Reject rej_out;
  ASSERT_TRUE(deploy::DecodeReject(deploy::EncodeReject({"too old"}), &rej_out));
  EXPECT_EQ(rej_out.reason, "too old");

  deploy::Activate act_out;
  ASSERT_TRUE(deploy::DecodeActivate(deploy::EncodeActivate({2, "w2.local", 9999}), &act_out));
  EXPECT_EQ(act_out.node, 2);
  EXPECT_EQ(act_out.host, "w2.local");
  EXPECT_EQ(act_out.port, 9999);

  deploy::Heartbeat hb_out;
  ASSERT_TRUE(deploy::DecodeHeartbeat(deploy::EncodeHeartbeat({4, 77}), &hb_out));
  EXPECT_EQ(hb_out.node, 4);
  EXPECT_EQ(hb_out.seq, 77u);

  deploy::RingUpdate ring_out;
  deploy::RingUpdate ring_in;
  ring_in.scheduler_epoch = 9;
  ring_in.ring = {{5, HashKey{42}}};
  ASSERT_TRUE(deploy::DecodeRingUpdate(deploy::EncodeRingUpdate(ring_in), &ring_out));
  EXPECT_EQ(ring_out.scheduler_epoch, 9u);
  ASSERT_EQ(ring_out.ring.size(), 1u);
  EXPECT_EQ(ring_out.ring[0].server, 5);

  deploy::PeerUpdate peers_out;
  deploy::PeerUpdate peers_in;
  peers_in.peers = {{1, "h", 2}};
  ASSERT_TRUE(deploy::DecodePeerUpdate(deploy::EncodePeerUpdate(peers_in), &peers_out));
  ASSERT_EQ(peers_out.peers.size(), 1u);

  deploy::DiskDelay delay_out;
  ASSERT_TRUE(deploy::DecodeDiskDelay(deploy::EncodeDiskDelay({1500}), &delay_out));
  EXPECT_EQ(delay_out.delay_us, 1500);
}

TEST(DeploySerde, TruncatedAndWrongTypeRejected) {
  net::Message hello = deploy::EncodeHello({});
  deploy::Hello out;
  net::Message truncated = hello;
  truncated.payload.resize(truncated.payload.size() / 2);
  EXPECT_FALSE(deploy::DecodeHello(truncated, &out));
  net::Message wrong_type = hello;
  wrong_type.type = deploy::msg::kHeartbeat;
  EXPECT_FALSE(deploy::DecodeHello(wrong_type, &out));
  net::Message trailing = hello;
  trailing.payload += "junk";
  EXPECT_FALSE(deploy::DecodeHello(trailing, &out));
}

// ---------------------------------------------------------------------------
// Handshake over real loopback TCP (coordinator + worker hosts in-process)

TEST(Deploy, VersionMismatchRejected) {
  mr::DeploymentOptions dopts;
  mr::DeploymentCoordinator coordinator(dopts);
  ASSERT_GT(coordinator.bootstrap_port(), 0);

  net::TcpTransport client;
  client.AddPeer(deploy::kCoordinatorNode, "127.0.0.1", coordinator.bootstrap_port());
  deploy::Hello hello;
  hello.version = 999;  // a worker from the future
  net::ScopedDeadline sd(net::Deadline::After(2s));
  auto resp = client.Call(-1, deploy::kCoordinatorNode, deploy::EncodeHello(hello));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp.value().type, deploy::msg::kReject);
  deploy::Reject reject;
  ASSERT_TRUE(deploy::DecodeReject(resp.value(), &reject));
  EXPECT_NE(reject.reason.find("version mismatch"), std::string::npos) << reject.reason;
  EXPECT_TRUE(coordinator.ActiveWorkers().empty());
}

TEST(Deploy, BadMagicRejected) {
  mr::DeploymentCoordinator coordinator({});
  ASSERT_GT(coordinator.bootstrap_port(), 0);
  net::TcpTransport client;
  client.AddPeer(deploy::kCoordinatorNode, "127.0.0.1", coordinator.bootstrap_port());
  deploy::Hello hello;
  hello.magic = 0xDEADBEEF;  // not an eclipse worker
  net::ScopedDeadline sd(net::Deadline::After(2s));
  auto resp = client.Call(-1, deploy::kCoordinatorNode, deploy::EncodeHello(hello));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().type, deploy::msg::kReject);
}

TEST(Deploy, DuplicateDesiredNodeRejected) {
  mr::DeploymentOptions dopts;
  dopts.heartbeat_interval_ms = 50;
  mr::DeploymentCoordinator coordinator(dopts);
  ASSERT_GT(coordinator.bootstrap_port(), 0);

  mr::WorkerHostOptions wopts;
  wopts.coordinator_port = coordinator.bootstrap_port();
  wopts.desired_node = 5;
  wopts.heartbeat_interval_ms = 50;
  mr::WorkerHost first(wopts);
  ASSERT_TRUE(first.Start()) << first.error();
  EXPECT_EQ(first.node(), 5);

  wopts.hello_timeout_ms = 1000;
  mr::WorkerHost second(wopts);
  EXPECT_FALSE(second.Start());
  EXPECT_NE(second.error().find("already taken"), std::string::npos) << second.error();

  coordinator.ShutdownAll();
}

TEST(Deploy, HandshakeHeartbeatRingPushAndShutdown) {
  mr::DeploymentOptions dopts;
  dopts.heartbeat_interval_ms = 20;
  dopts.cache_capacity = 8ull << 20;
  mr::DeploymentCoordinator coordinator(dopts);
  ASSERT_GT(coordinator.bootstrap_port(), 0);

  mr::WorkerHostOptions wopts;
  wopts.coordinator_port = coordinator.bootstrap_port();
  wopts.heartbeat_interval_ms = 20;
  mr::WorkerHost worker(wopts);
  ASSERT_TRUE(worker.Start()) << worker.error();
  EXPECT_EQ(worker.node(), 0);
  EXPECT_GT(worker.data_port(), 0);

  // Activation is visible to waiters, including ones that arrive late.
  EXPECT_TRUE(coordinator.WaitForWorkers(1, 2000));
  EXPECT_EQ(coordinator.WaitForWorkerAtLeast(0, 2000), 0);
  EXPECT_EQ(coordinator.ActiveWorkers(), std::vector<int>{0});

  // Heartbeats flow without a Cluster in the picture. The coordinator counts
  // a heartbeat when it handles it, the worker only once the reply is back,
  // so wait for both sides.
  const auto deadline = std::chrono::steady_clock::now() + 3s;
  while ((coordinator.HeartbeatCount() == 0 || worker.heartbeats_sent() == 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_GT(coordinator.HeartbeatCount(), 0u);
  EXPECT_GT(worker.heartbeats_sent(), 0u);

  // A pushed ring (epoch 7) lands in the worker's snapshot.
  dht::Ring ring;
  ring.AddServer(0, 1);
  coordinator.PushRing(7, ring);
  EXPECT_EQ(worker.scheduler_epoch(), 7u);

  // Shutdown drains: Serve returns 0 (clean, not coordinator-lost).
  std::thread server([&worker] { EXPECT_EQ(worker.Serve(), 0); });
  coordinator.ShutdownWorker(0);
  server.join();
  EXPECT_TRUE(coordinator.ActiveWorkers().empty());
}

TEST(Deploy, ClusterOverDeploymentMatchesInProcessOutput) {
  Rng rng(1234);
  workload::TextOptions topts;
  topts.target_bytes = 32_KiB;
  const std::string corpus = workload::GenerateText(rng, topts);

  // Reference: the plain in-process emulation.
  mr::JobResult reference;
  {
    mr::ClusterOptions copts;
    copts.num_servers = 2;
    copts.block_size = 4_KiB;
    mr::Cluster cluster(copts);
    ASSERT_TRUE(cluster.dfs().Upload("corpus", corpus).ok());
    reference = cluster.Run(apps::WordCountJob("wc-ref", "corpus"));
    ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();
  }

  // Deployment mode: two worker hosts (in this process, but over real TCP
  // with their own transports — the same code path eclipse-worker runs).
  mr::DeploymentOptions dopts;
  dopts.heartbeat_interval_ms = 100;
  auto coordinator = std::make_shared<mr::DeploymentCoordinator>(dopts);
  ASSERT_GT(coordinator->bootstrap_port(), 0);

  mr::WorkerHostOptions wopts;
  wopts.coordinator_port = coordinator->bootstrap_port();
  wopts.heartbeat_interval_ms = 100;
  mr::WorkerHost w0(wopts), w1(wopts);
  ASSERT_TRUE(w0.Start()) << w0.error();
  ASSERT_TRUE(w1.Start()) << w1.error();
  ASSERT_TRUE(coordinator->WaitForWorkers(2, 5000));

  mr::JobResult deployed;
  {
    mr::ClusterOptions copts;
    copts.deployment = coordinator;
    copts.block_size = 4_KiB;
    mr::Cluster cluster(copts);
    ASSERT_EQ(cluster.WorkerIds().size(), 2u);
    ASSERT_TRUE(cluster.dfs().Upload("corpus", corpus).ok());
    deployed = cluster.Run(apps::WordCountJob("wc-deploy", "corpus"));
    ASSERT_TRUE(deployed.status.ok()) << deployed.status.ToString();
  }
  coordinator->ShutdownAll();

  EXPECT_EQ(deployed.output, reference.output);
  EXPECT_EQ(apps::OutputFingerprint(deployed.output),
            apps::OutputFingerprint(reference.output));
}

// ---------------------------------------------------------------------------
// The real thing: coordinator + workers as subprocesses

class SubprocessDeployTest : public ::testing::Test {
 protected:
  static std::string BinDir() { return ECLIPSE_APPS_BIN_DIR; }

  pid_t Spawn(const std::vector<std::string>& argv, const std::string& log_path) {
    pid_t pid = fork();
    if (pid != 0) return pid;
    // Child: redirect stdout+stderr to the log and exec.
    FILE* log = std::fopen(log_path.c_str(), "w");
    if (log) {
      dup2(fileno(log), 1);
      dup2(fileno(log), 2);
    }
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    execv(cargv[0], cargv.data());
    _exit(127);
  }

  static std::string Slurp(const std::string& path) {
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }
};

TEST_F(SubprocessDeployTest, WordCountBitIdenticalToInProcess) {
  const std::string worker_bin = BinDir() + "/eclipse-worker";
  const std::string coordinator_bin = BinDir() + "/eclipse-coordinator";
  ASSERT_EQ(access(worker_bin.c_str(), X_OK), 0) << worker_bin;
  ASSERT_EQ(access(coordinator_bin.c_str(), X_OK), 0) << coordinator_bin;

  const std::string dir = ::testing::TempDir();
  const int port = 21000 + static_cast<int>(getpid() % 20000);
  const std::string endpoint = "127.0.0.1:" + std::to_string(port);

  std::vector<pid_t> workers;
  for (int i = 0; i < 3; ++i) {
    workers.push_back(Spawn({worker_bin, "--coordinator", endpoint},
                            dir + "worker" + std::to_string(i) + ".log"));
  }
  pid_t coordinator = Spawn(
      {coordinator_bin, "--port", std::to_string(port), "--workers", "3", "--wait-ms",
       "30000", "--seed", "1234", "--input-kb", "32", "--block-kb", "4"},
      dir + "coordinator.log");

  int status = 0;
  ASSERT_EQ(waitpid(coordinator, &status, 0), coordinator);
  const std::string coord_log = Slurp(dir + "coordinator.log");
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << coord_log;
  for (pid_t w : workers) {
    ASSERT_EQ(waitpid(w, &status, 0), w);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "worker exited " << status;
  }

  // The coordinator prints "output pairs: N fingerprint: H". Reproduce the
  // exact job in-process (same seed/corpus/block size) and compare.
  std::smatch m;
  ASSERT_TRUE(std::regex_search(
      coord_log, m, std::regex(R"(output pairs: (\d+) fingerprint: ([0-9a-f]+))")))
      << coord_log;

  Rng rng(1234);
  workload::TextOptions topts;
  topts.target_bytes = 32_KiB;
  const std::string corpus = workload::GenerateText(rng, topts);
  mr::ClusterOptions copts;
  copts.num_servers = 3;
  copts.block_size = 4_KiB;
  mr::Cluster cluster(copts);
  ASSERT_TRUE(cluster.dfs().Upload("corpus", corpus).ok());
  mr::JobResult reference = cluster.Run(apps::WordCountJob("wc-ref", "corpus"));
  ASSERT_TRUE(reference.status.ok());

  EXPECT_EQ(m[1].str(), std::to_string(reference.output.size())) << coord_log;
  char expected[32];
  std::snprintf(expected, sizeof expected, "%016llx",
                static_cast<unsigned long long>(apps::OutputFingerprint(reference.output)));
  EXPECT_EQ(m[2].str(), expected) << coord_log;
}

// ---------------------------------------------------------------------------
// Handbook ↔ --help consistency (the deployment.md flag catalog is enforced,
// pattern established by docs/fault-tolerance.md's knob catalog)

TEST(DeployDocs, HandbookFlagsMatchBinaryHelp) {
  std::ifstream in(std::string(ECLIPSE_SOURCE_DIR) + "/docs/deployment.md");
  ASSERT_TRUE(in.good()) << "docs/deployment.md missing";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();

  const std::string help =
      apps::Help(apps::WorkerFlagSet()) + apps::Help(apps::CoordinatorFlagSet());

  // Every flag the handbook mentions exists in a binary's --help.
  std::set<std::string> documented;
  const std::regex flag_re(R"(--[a-z][a-z0-9-]*)");
  for (std::sregex_iterator it(doc.begin(), doc.end(), flag_re), end; it != end; ++it) {
    documented.insert(it->str());
  }
  ASSERT_FALSE(documented.empty()) << "handbook documents no flags at all";
  for (const auto& flag : documented) {
    EXPECT_NE(help.find(flag), std::string::npos)
        << "docs/deployment.md documents `" << flag << "` but no binary accepts it";
  }

  // Every flag a binary accepts is documented in the handbook.
  for (const apps::FlagSet* set : {&apps::WorkerFlagSet(), &apps::CoordinatorFlagSet()}) {
    for (std::size_t f = 0; f < set->count; ++f) {
      EXPECT_NE(doc.find(set->flags[f].name), std::string::npos)
          << set->binary << " accepts `" << set->flags[f].name
          << "` but docs/deployment.md does not document it";
    }
  }
}

TEST(DeployDocs, FlagParserBasics) {
  const apps::FlagSet& set = apps::CoordinatorFlagSet();
  const char* argv[] = {"eclipse-coordinator", "--port", "9001", "--workers=8", "--serve"};
  apps::ParsedFlags parsed = apps::Parse(set, 5, const_cast<char**>(argv));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.Int("--port", 0), 9001);
  EXPECT_EQ(parsed.Int("--workers", 0), 8);
  EXPECT_TRUE(parsed.Has("--serve"));
  EXPECT_EQ(parsed.Int("--cache-mb", 64), 64);  // default falls through

  const char* bad[] = {"x", "--no-such-flag"};
  EXPECT_FALSE(apps::Parse(set, 2, const_cast<char**>(bad)).ok);
  const char* missing[] = {"x", "--port"};
  EXPECT_FALSE(apps::Parse(set, 2, const_cast<char**>(missing)).ok);
  const char* help[] = {"x", "--help"};
  EXPECT_TRUE(apps::Parse(set, 2, const_cast<char**>(help)).help);

  std::string host;
  int port = 0;
  EXPECT_TRUE(apps::SplitHostPort("10.0.0.1:8080", &host, &port));
  EXPECT_EQ(host, "10.0.0.1");
  EXPECT_EQ(port, 8080);
  EXPECT_FALSE(apps::SplitHostPort("nohost", &host, &port));
  EXPECT_FALSE(apps::SplitHostPort("h:99999", &host, &port));
}

}  // namespace
}  // namespace eclipse
