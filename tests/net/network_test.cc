#include "net/network.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "net/wire.h"

namespace viewmat::net {
namespace {

/// Records every delivery with its virtual timestamp.
class Recorder : public Endpoint {
 public:
  explicit Recorder(Network* net) : net_(net) {}
  void OnMessage(NodeId from, const Message& msg) override {
    deliveries.push_back({from, msg, net_->now_ms()});
  }
  struct Delivery {
    NodeId from;
    Message msg;
    double at_ms;
  };
  std::vector<Delivery> deliveries;

 private:
  Network* net_;
};

Message Commit(uint64_t session, uint64_t seq) {
  Message m;
  m.type = MsgType::kCommit;
  m.session_id = session;
  m.seq_no = seq;
  m.victims = {{3, 1.5}, {7, -2.0}};
  return m;
}

TEST(WireTest, EncodeDecodeRoundTrip) {
  Message m = Commit(42, 7);
  m.attempt = 3;
  m.lo = -5;
  m.hi = 99;
  m.wstatus = WireStatus::kOverloaded;
  m.txn_id = 1234;
  m.answer_digest = 0xdeadbeefull;
  m.journal_len = 17;
  m.degraded = true;
  const std::vector<uint8_t> frame = m.Encode();
  const auto decoded = Message::Decode(frame.data(), frame.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->type, MsgType::kCommit);
  EXPECT_EQ(decoded->session_id, 42u);
  EXPECT_EQ(decoded->seq_no, 7u);
  EXPECT_EQ(decoded->attempt, 3u);
  EXPECT_EQ(decoded->victims, m.victims);
  EXPECT_EQ(decoded->lo, -5);
  EXPECT_EQ(decoded->hi, 99);
  EXPECT_EQ(decoded->wstatus, WireStatus::kOverloaded);
  EXPECT_EQ(decoded->txn_id, 1234u);
  EXPECT_EQ(decoded->answer_digest, 0xdeadbeefull);
  EXPECT_EQ(decoded->journal_len, 17u);
  EXPECT_TRUE(decoded->degraded);
}

TEST(WireTest, DecodeRejectsTruncationAtEveryLength) {
  const std::vector<uint8_t> frame = Commit(1, 2).Encode();
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(Message::Decode(frame.data(), len).ok()) << len;
  }
  EXPECT_TRUE(Message::Decode(frame.data(), frame.size()).ok());
}

TEST(WireTest, DecodeRejectsTrailingBytesAndBadEnums) {
  std::vector<uint8_t> frame = Commit(1, 2).Encode();
  frame.push_back(0);
  EXPECT_FALSE(Message::Decode(frame.data(), frame.size()).ok());
  frame.pop_back();
  std::vector<uint8_t> bad_type = frame;
  bad_type[0] = 200;
  EXPECT_FALSE(Message::Decode(bad_type.data(), bad_type.size()).ok());
}

TEST(WireTest, DecodeRejectsVictimCountBeyondPayload) {
  std::vector<uint8_t> frame = Commit(1, 2).Encode();
  // The count word follows type (1), session (8), seq (8) and attempt (4).
  const uint32_t huge = 0xFFFFFFF0u;
  std::memcpy(frame.data() + 21, &huge, sizeof(huge));
  const auto decoded = Message::Decode(frame.data(), frame.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetworkTest, DeliversInTimeOrderWithSeededLatency) {
  Network net(Network::Options{});
  Recorder sink(&net);
  net.Register(1, &sink);
  ASSERT_TRUE(net.Send(0, 1, Commit(2, 1)).ok());
  ASSERT_TRUE(net.Send(0, 1, Commit(2, 2)).ok());
  ASSERT_TRUE(net.Send(0, 1, Commit(2, 3), /*extra_delay_ms=*/50.0).ok());
  EXPECT_TRUE(net.RunUntilIdle(100));
  ASSERT_EQ(sink.deliveries.size(), 3u);
  // Same channel, no extra delay: FIFO by send time + per-message jitter.
  EXPECT_EQ(sink.deliveries[0].msg.seq_no, 1u);
  EXPECT_EQ(sink.deliveries[1].msg.seq_no, 2u);
  // The extra-delayed message lands last, at >= 50ms.
  EXPECT_EQ(sink.deliveries[2].msg.seq_no, 3u);
  EXPECT_GE(sink.deliveries[2].at_ms, 50.0);
  EXPECT_EQ(net.sent(), 3u);
  EXPECT_EQ(net.delivered(), 3u);
}

TEST(NetworkTest, UnknownDestinationIsAnError) {
  Network net(Network::Options{});
  EXPECT_FALSE(net.Send(0, 9, Commit(1, 1)).ok());
}

TEST(NetworkTest, SameSeedSameSchedule) {
  std::vector<double> times[2];
  for (int round = 0; round < 2; ++round) {
    Network::Options options;
    options.seed = 77;
    Network net(options);
    Recorder sink(&net);
    net.Register(1, &sink);
    for (uint64_t i = 0; i < 16; ++i) {
      ASSERT_TRUE(net.Send(0, 1, Commit(2, i)).ok());
    }
    EXPECT_TRUE(net.RunUntilIdle(1000));
    for (const auto& d : sink.deliveries) times[round].push_back(d.at_ms);
  }
  EXPECT_EQ(times[0], times[1]);
}

TEST(NetworkTest, TimersFireInPostedTimeOrder) {
  Network net(Network::Options{});
  std::vector<int> fired;
  net.Post(30.0, [&] { fired.push_back(3); });
  net.Post(10.0, [&] { fired.push_back(1); });
  net.Post(20.0, [&] { fired.push_back(2); });
  net.Post(10.0, [&] { fired.push_back(4); });  // ties break by insertion
  EXPECT_TRUE(net.RunUntilIdle(100));
  EXPECT_EQ(fired, (std::vector<int>{1, 4, 2, 3}));
  EXPECT_DOUBLE_EQ(net.now_ms(), 30.0);
}

TEST(NetworkTest, EventCapStopsARunawayLoop) {
  Network net(Network::Options{});
  std::function<void()> again = [&] { net.Post(1.0, again); };
  net.Post(1.0, again);
  EXPECT_FALSE(net.RunUntilIdle(50));  // liveness verdict: not drained
  EXPECT_EQ(net.events_run(), 50u);
}

}  // namespace
}  // namespace viewmat::net
