// Seeded mutational fuzz for the decoders that read bytes the program did
// not write itself: net::Message::Decode (the wire), common::ParseJson, and
// sim::DiffBenchReports (bench_diff's report loader). Seeds are built in
// process — one encoded message of every type and a quick simulation's
// BenchReport JSON — then mutated with a PRNG: bit flips, overwritten count
// and length words, truncation, and splices. Every call must come back
// with a Status, never abort; a message that decodes must re-encode to
// bytes that decode to the same message.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/random.h"
#include "net/wire.h"
#include "sim/bench_diff.h"
#include "sim/bench_report.h"
#include "sim/simulator.h"

namespace viewmat {
namespace {

constexpr uint64_t kSeed = 0xdec0de2026;

/// Words a corrupted count or length field plausibly holds: zero, one, the
/// edges of each width, and values just past a small payload.
constexpr uint64_t kExtremeWords[] = {
    0,          1,          2,          16,         0x7f,
    0x80,       0xff,       0xffff,     0x7fffffff, 0x80000000,
    0xfffffff0, 0xffffffff, 0x100000000ull,
    0x7fffffffffffffffull,  0x8000000000000000ull, ~0ull};

uint64_t ExtremeWord(Random* rng) {
  if (rng->Bernoulli(0.25)) return rng->Next();
  return kExtremeWords[rng->Uniform(std::size(kExtremeWords))];
}

/// One mutation of `in`: a bit flip, an overwritten 1-, 4- or 8-byte word,
/// a truncation, or a splice of a slice of `donor` over a slice of `in`.
template <typename Bytes>
Bytes Mutate(const Bytes& in, const Bytes& donor, Random* rng) {
  Bytes out = in;
  switch (rng->Uniform(4)) {
    case 0: {  // bit flips
      const uint64_t flips = 1 + rng->Uniform(4);
      for (uint64_t f = 0; f < flips && !out.empty(); ++f) {
        out[rng->Uniform(out.size())] ^=
            static_cast<uint8_t>(1u << rng->Uniform(8));
      }
      break;
    }
    case 1: {  // overwritten count / length word
      static constexpr size_t kWidths[] = {1, 4, 8};
      const size_t width = kWidths[rng->Uniform(3)];
      if (out.size() < width) break;
      const uint64_t word = ExtremeWord(rng);
      std::memcpy(&out[rng->Uniform(out.size() - width + 1)], &word, width);
      break;
    }
    case 2:  // truncation
      out.resize(rng->Uniform(out.size() + 1));
      break;
    case 3: {  // splice
      if (donor.empty()) break;
      const size_t from = rng->Uniform(donor.size());
      const size_t len = 1 + rng->Uniform(donor.size() - from);
      const size_t at = rng->Uniform(out.size() + 1);
      const size_t keep = rng->Uniform(out.size() - at + 1);
      Bytes spliced(out.begin(), out.begin() + at);
      spliced.insert(spliced.end(), donor.begin() + from,
                     donor.begin() + from + len);
      spliced.insert(spliced.end(), out.begin() + at + keep, out.end());
      out = std::move(spliced);
      break;
    }
  }
  return out;
}

/// One encoded message of every type, each with the fields its type uses.
std::vector<std::vector<uint8_t>> MessageSeeds() {
  std::vector<std::vector<uint8_t>> seeds;
  for (uint8_t t = static_cast<uint8_t>(net::MsgType::kOpenSession);
       t <= static_cast<uint8_t>(net::MsgType::kRefreshAck); ++t) {
    net::Message m;
    m.type = static_cast<net::MsgType>(t);
    m.session_id = 2 + t;
    m.seq_no = 40 + t;
    m.attempt = t;
    switch (m.type) {
      case net::MsgType::kCommit:
        m.victims = {{3, 1.5}, {17, -250.25}, {-4, 1e300}};
        break;
      case net::MsgType::kQuery:
        m.lo = 5;
        m.hi = 900;
        break;
      case net::MsgType::kReply:
        m.wstatus = net::WireStatus::kRejected;
        m.txn_id = 77;
        m.answer_digest = 0x0123456789abcdefull;
        m.journal_len = 12;
        m.degraded = true;
        break;
      case net::MsgType::kOpenAck:
        m.wstatus = net::WireStatus::kOverloaded;
        break;
      default:
        break;
    }
    seeds.push_back(m.Encode());
  }
  return seeds;
}

/// A quick report shaped like a bench's: one simulated Model 1 sweep point
/// (runs, attribution, explain gaps, timeline) and one series table.
std::string ReportSeed() {
  costmodel::Params params;
  params.N = 2000;
  params.k = 10;
  params.l = 5;
  params.q = 10;
  sim::SimOptions options;
  options.seed = 3;
  auto result = sim::Simulate(1, params, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  sim::BenchReport report("bench_fuzz_seed", /*quick=*/true);
  if (result.ok()) report.AddSimResult(*result);
  sim::SeriesTable table;
  table.title = "fuzz table";
  table.x_label = "clients";
  table.series_names = {"committed", "throughput_tps"};
  table.AddRow(2, {4.0, 5.5});
  table.AddRow(4, {9.0, 4.25});
  report.AddTable(table);
  report.AddNote("invariant", "seed");
  return report.ToJson();
}

TEST(DecoderFuzz, MutatedWireMessagesDecodeToAStatus) {
  const std::vector<std::vector<uint8_t>> seeds = MessageSeeds();
  for (const std::vector<uint8_t>& seed : seeds) {
    ASSERT_TRUE(net::Message::Decode(seed.data(), seed.size()).ok());
  }
  Random rng(kSeed);
  size_t decoded = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::vector<uint8_t>& base = seeds[rng.Uniform(seeds.size())];
    const std::vector<uint8_t>& donor = seeds[rng.Uniform(seeds.size())];
    std::vector<uint8_t> bytes = Mutate(base, donor, &rng);
    if (rng.Bernoulli(0.3)) bytes = Mutate(bytes, donor, &rng);
    const auto msg = net::Message::Decode(bytes.data(), bytes.size());
    if (!msg.ok()) continue;
    ++decoded;
    // Whatever decoded is a well-formed message: its encoding decodes back
    // to the same encoding.
    const std::vector<uint8_t> again = msg->Encode();
    const auto round = net::Message::Decode(again.data(), again.size());
    ASSERT_TRUE(round.ok()) << "iteration " << i << ": "
                            << round.status().ToString();
    EXPECT_EQ(round->Encode(), again) << "iteration " << i;
  }
  // The mutations must leave some inputs decodable, or the round-trip
  // check above never ran.
  EXPECT_GT(decoded, 0u);
}

TEST(DecoderFuzz, MutatedReportsParseToAStatus) {
  const std::string seed = ReportSeed();
  ASSERT_TRUE(common::ParseJson(seed).ok());
  Random rng(kSeed + 1);
  for (int i = 0; i < 3000; ++i) {
    std::string text = Mutate(seed, seed, &rng);
    if (rng.Bernoulli(0.3)) text = Mutate(text, seed, &rng);
    (void)common::ParseJson(text);
  }
}

TEST(DecoderFuzz, MutatedReportsDiffToAStatus) {
  const std::string seed = ReportSeed();
  const auto clean = sim::DiffBenchReports(seed, seed, sim::DiffOptions{});
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_TRUE(clean->ok());
  Random rng(kSeed + 2);
  size_t diffed = 0;
  for (int i = 0; i < 600; ++i) {
    const std::string old_json =
        rng.Bernoulli(0.5) ? Mutate(seed, seed, &rng) : seed;
    const std::string new_json = Mutate(seed, old_json, &rng);
    const auto result =
        sim::DiffBenchReports(old_json, new_json, sim::DiffOptions{});
    if (!result.ok()) continue;
    ++diffed;
    (void)result->ToString(/*verbose=*/true);
  }
  EXPECT_GT(diffed, 0u);
}

}  // namespace
}  // namespace viewmat
