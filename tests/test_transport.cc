#include "net/transport.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <string>
#include <thread>

#include "common/serde.h"
#include "net/dispatcher.h"
#include "net/epoll_server.h"
#include "net/tcp_transport.h"

namespace eclipse::net {
namespace {

Message Echo(NodeId from, const Message& m) {
  Message resp{m.type + 1, "from=" + std::to_string(from) + ":" + m.payload};
  return resp;
}

TEST(InProcessTransport, CallRoundTrip) {
  InProcessTransport t;
  t.Register(1, Echo);
  auto resp = t.Call(0, 1, Message{10, "hello"});
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().type, 11u);
  EXPECT_EQ(resp.value().payload, "from=0:hello");
}

TEST(InProcessTransport, UnknownNodeIsUnavailable) {
  InProcessTransport t;
  auto resp = t.Call(0, 42, Message{1, ""});
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), ErrorCode::kUnavailable);
}

TEST(InProcessTransport, DetachSimulatesCrash) {
  InProcessTransport t;
  t.Register(1, Echo);
  ASSERT_TRUE(t.Call(0, 1, Message{1, ""}).ok());
  t.Register(1, nullptr);
  EXPECT_FALSE(t.Call(0, 1, Message{1, ""}).ok());
}

TEST(InProcessTransport, ConcurrentCalls) {
  InProcessTransport t;
  std::atomic<int> handled{0};
  t.Register(5, [&handled](NodeId, const Message& m) {
    ++handled;
    return m;
  });
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&t, i] {
      for (int j = 0; j < 50; ++j) {
        auto r = t.Call(i, 5, Message{1, "x"});
        ASSERT_TRUE(r.ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(handled.load(), 400);
}

TEST(Dispatcher, RoutesByTypeRange) {
  Dispatcher d;
  d.Route(100, 199, [](NodeId, const Message& m) { return Message{1, "dht" + m.payload}; });
  d.Route(200, 299, [](NodeId, const Message& m) { return Message{2, "dfs" + m.payload}; });
  auto h = d.AsHandler();
  EXPECT_EQ(h(0, Message{150, "!"}).payload, "dht!");
  EXPECT_EQ(h(0, Message{200, "!"}).payload, "dfs!");
  EXPECT_EQ(h(0, Message{299, "!"}).payload, "dfs!");
  // Unrouted type yields an error message.
  Message resp = h(0, Message{999, ""});
  EXPECT_TRUE(IsError(resp));
  EXPECT_EQ(DecodeError(resp).code(), ErrorCode::kInvalidArgument);
}

TEST(ErrorMessageTest, RoundTrip) {
  Message m = ErrorMessage(ErrorCode::kPermission, "nope");
  ASSERT_TRUE(IsError(m));
  Status s = DecodeError(m);
  EXPECT_EQ(s.code(), ErrorCode::kPermission);
  EXPECT_EQ(s.message(), "nope");
}

TEST(WritevFull, ClosedPeerFailsWithoutSigpipe) {
  // Writing to a socket whose peer has closed raises SIGPIPE unless the
  // send says otherwise; the default action kills the process. WritevFull
  // must report the failure instead. SIGPIPE gets its default action for
  // the write, whatever the launcher left it at, so a regression ends this
  // test binary.
  struct sigaction dfl {};
  dfl.sa_handler = SIG_DFL;
  ::sigemptyset(&dfl.sa_mask);
  struct sigaction saved {};
  ASSERT_EQ(::sigaction(SIGPIPE, &dfl, &saved), 0);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  std::string head = "header";
  std::string body(64 * 1024, 'x');
  iovec iov[2] = {{head.data(), head.size()}, {body.data(), body.size()}};
  const bool wrote = net::WritevFull(fds[0], iov, 2, 1000);
  const int err = errno;
  ::close(fds[0]);
  ::sigaction(SIGPIPE, &saved, nullptr);
  EXPECT_FALSE(wrote);
  EXPECT_EQ(err, EPIPE);
}

TEST(TcpTransport, LoopbackRoundTrip) {
  TcpTransport t;
  t.Register(3, Echo);
  ASSERT_GT(t.PortOf(3), 0);
  auto resp = t.Call(9, 3, Message{7, "over tcp"});
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().type, 8u);
  EXPECT_EQ(resp.value().payload, "from=9:over tcp");
}

TEST(TcpTransport, LargePayload) {
  TcpTransport t;
  t.Register(1, [](NodeId, const Message& m) { return Message{2, m.payload}; });
  std::string big(512 * 1024, 'z');
  auto resp = t.Call(0, 1, Message{1, big});
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().payload, big);
}

TEST(TcpTransport, UnregisteredUnavailable) {
  TcpTransport t;
  EXPECT_EQ(t.Call(0, 77, Message{1, ""}).status().code(), ErrorCode::kUnavailable);
}

TEST(TcpTransport, DetachStopsService) {
  TcpTransport t;
  t.Register(2, Echo);
  ASSERT_TRUE(t.Call(0, 2, Message{1, ""}).ok());
  t.Register(2, nullptr);
  EXPECT_FALSE(t.Call(0, 2, Message{1, ""}).ok());
}

TEST(TcpTransport, ConcurrentClients) {
  TcpTransport t;
  t.Register(1, Echo);
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&t, &ok, i] {
      for (int j = 0; j < 20; ++j) {
        auto r = t.Call(i, 1, Message{1, std::to_string(j)});
        if (r.ok()) ++ok;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), 80);
}

}  // namespace
}  // namespace eclipse::net
