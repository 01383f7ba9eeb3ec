// TDBGTRC3 columnar trace store tests (ctest label `trace`):
//
//   * v3 round-trips (eager and lazy readers) on synthetic, extreme,
//     and recorded traces,
//   * conversion chains v3 <-> v2 <-> v1 <-> text, including the
//     v2 -> v3 -> v2 byte-identity contract,
//   * truncated/corrupted v3 blocks raise FormatError naming the
//     segment and the column (hand-corrupted regression),
//   * zone-map skipping and column pruning advance the trace.decode.*
//     counters without changing any query result,
//   * the column encoder writes the same blocks, masks and zones as
//     its two-pass predecessor (kept here as the oracle), and the v3
//     writer writes the same file at any thread count, chunking and
//     source, with the per-event footer flags and no part of a call
//     that holds an out-of-range rank,
//   * analysis artifacts are byte-identical on the storm and
//     deadlock_ring workloads across both backends, all three binary
//     versions, at 1 and 8 threads.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/session.hpp"
#include "fault/engine.hpp"
#include "fault/plan.hpp"
#include "graph/export.hpp"
#include "mpi/runtime.hpp"
#include "obs/metrics.hpp"
#include "replay/record.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/rng.hpp"
#include "support/serialize.hpp"
#include "trace/columnar.hpp"
#include "trace/store.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace tdbg {
namespace {

namespace columnar = trace::columnar;

class TempFile {
 public:
  TempFile() {
    path_ = std::filesystem::temp_directory_path() /
            ("tdbg_columnar_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++) + ".trc");
  }
  ~TempFile() { std::filesystem::remove(path_); }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

bool same_event(const trace::Event& a, const trace::Event& b) {
  return a.kind == b.kind && a.rank == b.rank && a.marker == b.marker &&
         a.construct == b.construct && a.t_start == b.t_start &&
         a.t_end == b.t_end && a.peer == b.peer && a.tag == b.tag &&
         a.channel_seq == b.channel_seq && a.bytes == b.bytes &&
         a.wildcard == b.wildcard;
}

void expect_same_trace(const trace::Trace& a, const trace::Trace& b) {
  ASSERT_EQ(a.num_ranks(), b.num_ranks());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same_event(a.event(i), b.event(i))) << "event " << i;
  }
}

/// Display-sorted synthetic trace with monotone per-rank markers,
/// valid channel sequence numbers, and a mix of computes, sends, and
/// receives — every binary format accepts it, and the v2/v3 writers
/// earn the sorted footer flags (so `open_trace` goes lazy).
std::vector<trace::Event> synth_events(std::size_t n, int ranks,
                                       std::uint64_t seed) {
  auto rng = support::SplitMix64(seed).split(1);
  std::vector<trace::Event> events;
  events.reserve(n);
  std::vector<std::uint64_t> next_marker(static_cast<std::size_t>(ranks), 1);
  std::map<std::pair<int, int>, std::pair<std::uint64_t, std::uint64_t>> chan;
  for (std::size_t i = 0; i < n; ++i) {
    trace::Event e;
    const int rank =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(ranks)));
    e.rank = rank;
    e.marker = next_marker[static_cast<std::size_t>(rank)]++;
    e.t_start = static_cast<support::TimeNs>(i) * 10;
    e.t_end = e.t_start + static_cast<support::TimeNs>(rng.next_below(9));
    const auto roll = rng.next_below(4);
    e.kind = trace::EventKind::kCompute;
    if (roll == 0 && ranks > 1) {
      const int peer = static_cast<int>(
          (static_cast<std::uint64_t>(rank) + 1 +
           rng.next_below(static_cast<std::uint64_t>(ranks - 1))) %
          static_cast<std::uint64_t>(ranks));
      e.kind = trace::EventKind::kSend;
      e.peer = peer;
      e.tag = static_cast<mpi::Tag>(rng.next_below(5));
      e.bytes = 8 + rng.next_below(4096);
      ++chan[{rank, peer}].first;
    } else if (roll == 1) {
      const auto start = rng.next_below(static_cast<std::uint64_t>(ranks));
      for (int k = 0; k < ranks; ++k) {
        const int src = static_cast<int>(
            (start + static_cast<std::uint64_t>(k)) %
            static_cast<std::uint64_t>(ranks));
        auto& [sent, received] = chan[{src, rank}];
        if (src == rank || received >= sent) continue;
        e.kind = trace::EventKind::kRecv;
        e.peer = src;
        e.channel_seq = static_cast<mpi::ChannelSeq>(received++);
        e.tag = static_cast<mpi::Tag>(rng.next_below(5));
        e.bytes = 8 + rng.next_below(4096);
        e.wildcard = rng.next_below(2) == 0;
        break;
      }
    }
    events.push_back(e);
  }
  return events;
}

trace::Trace synth_trace(std::size_t n, int ranks, std::uint64_t seed) {
  return trace::Trace(ranks, synth_events(n, ranks, seed), nullptr);
}

std::vector<char> slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// --- round-trips -----------------------------------------------------------

TEST(ColumnarTest, V3RoundTripEagerAndLazy) {
  const auto original = synth_trace(3000, 5, /*seed=*/11);
  TempFile file;
  trace::write_trace(file.path(), original, trace::TraceFormat::kBinaryV3,
                     /*segment_events=*/256);

  const auto eager = trace::read_trace(file.path());
  expect_same_trace(original, eager);

  const auto lazy = trace::open_trace(file.path());
  ASSERT_TRUE(lazy.is_lazy()) << "sorted v3 file should open segmented";
  expect_same_trace(original, lazy);

  // Per-rank program order survives the columnar round-trip.
  for (mpi::Rank r = 0; r < original.num_ranks(); ++r) {
    EXPECT_EQ(original.rank_events(r), lazy.rank_events(r)) << "rank " << r;
  }
}

TEST(ColumnarTest, ExtremeFieldValuesRoundTrip) {
  // High-entropy and boundary values force every encoding (raw,
  // zigzag'd negatives, 64-bit maxima) through the codec.
  std::vector<trace::Event> events;
  auto rng = support::SplitMix64(99).split(2);
  for (std::size_t i = 0; i < 300; ++i) {
    trace::Event e;
    e.rank = static_cast<int>(i % 3);
    e.marker = (i < 5) ? ~std::uint64_t{0} - i : rng.next();
    e.kind = static_cast<trace::EventKind>(i % 8);
    e.construct = (i % 7 == 0) ? trace::kNoConstruct
                               : static_cast<trace::ConstructId>(i);
    e.t_start = static_cast<support::TimeNs>(i) * 1000;
    e.t_end = e.t_start - 17;  // end before start: still bijective
    e.peer = (i % 2 == 0) ? -1 : static_cast<int>(rng.next_below(1u << 30));
    e.tag = (i % 3 == 0) ? -1 : static_cast<int>(rng.next_below(1u << 20));
    e.channel_seq = rng.next();
    e.bytes = (i % 5 == 0) ? ~std::uint64_t{0} : rng.next();
    e.wildcard = (i % 2) != 0;
    events.push_back(e);
  }
  TempFile file;
  {
    auto registry = std::make_shared<trace::ConstructRegistry>();
    trace::TraceWriter writer(file.path(), /*num_ranks=*/3, registry,
                              trace::TraceFormat::kBinaryV3,
                              /*segment_events=*/64);
    writer.write_events(events);
    writer.finish();
  }
  const auto loaded = trace::read_trace(file.path());
  ASSERT_EQ(loaded.size(), events.size());
  // t_start is unique and increasing, so display order == input order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_TRUE(same_event(events[i], loaded.event(i))) << "event " << i;
  }
}

TEST(ColumnarTest, ConversionChainPreservesEvents) {
  const auto original = synth_trace(1500, 4, /*seed=*/21);
  TempFile v3, v2, v1, text, back;
  trace::write_trace(v3.path(), original, trace::TraceFormat::kBinaryV3,
                     /*segment_events=*/128);
  trace::write_trace(v2.path(), trace::read_trace(v3.path()),
                     trace::TraceFormat::kBinary, /*segment_events=*/128);
  trace::write_trace(v1.path(), trace::read_trace(v2.path()),
                     trace::TraceFormat::kBinaryV1);
  trace::write_trace(text.path(), trace::read_trace(v1.path()),
                     trace::TraceFormat::kText);
  trace::write_trace(back.path(), trace::read_trace(text.path()),
                     trace::TraceFormat::kBinaryV3, /*segment_events=*/128);
  expect_same_trace(original, trace::read_trace(back.path()));
}

TEST(ColumnarTest, V2ToV3ToV2IsByteIdentical) {
  const auto original = synth_trace(2000, 4, /*seed=*/31);
  TempFile v2a, v3, v2b;
  trace::write_trace(v2a.path(), original, trace::TraceFormat::kBinary,
                     /*segment_events=*/256);
  trace::write_trace(v3.path(), trace::read_trace(v2a.path()),
                     trace::TraceFormat::kBinaryV3, /*segment_events=*/256);
  trace::write_trace(v2b.path(), trace::read_trace(v3.path()),
                     trace::TraceFormat::kBinary, /*segment_events=*/256);
  EXPECT_EQ(slurp(v2a.path()), slurp(v2b.path()));
}

TEST(ColumnarTest, V3IsSmallerThanV2) {
  const auto original = synth_trace(20000, 6, /*seed=*/41);
  TempFile v2, v3;
  trace::write_trace(v2.path(), original, trace::TraceFormat::kBinary);
  trace::write_trace(v3.path(), original, trace::TraceFormat::kBinaryV3);
  const auto s2 = std::filesystem::file_size(v2.path());
  const auto s3 = std::filesystem::file_size(v3.path());
  EXPECT_LT(s3, s2 / 2) << "v3=" << s3 << " v2=" << s2;
}

TEST(ColumnarTest, InspectReportsColumnsAndCompression) {
  const auto original = synth_trace(2000, 4, /*seed=*/51);
  TempFile v3;
  trace::write_trace(v3.path(), original, trace::TraceFormat::kBinaryV3,
                     /*segment_events=*/512);
  const auto info = trace::inspect_trace(v3.path());
  EXPECT_EQ(info.format, "binary-v3");
  EXPECT_EQ(info.event_count, original.size());
  EXPECT_TRUE(info.has_footer);

  const auto footer = trace::try_read_footer(v3.path());
  ASSERT_TRUE(footer.has_value());
  EXPECT_EQ(footer->footer.version, 3u);
  const auto columns = trace::inspect_columns(v3.path(), *footer);
  ASSERT_EQ(columns.size(), trace::wire::kNumColumnsV3);
  EXPECT_EQ(columns[0].name, "kind");
  std::uint64_t payload = 0;
  for (const auto& c : columns) {
    EXPECT_FALSE(c.encodings.empty()) << c.name;
    payload += c.bytes;
  }
  EXPECT_LT(payload, original.size() * trace::wire::kEventRecordBytes);
}

// --- failure modes ---------------------------------------------------------

void truncate_copy(const std::filesystem::path& from,
                   const std::filesystem::path& to, std::uint64_t keep) {
  const auto bytes = slurp(from);
  ASSERT_LE(keep, bytes.size());
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(keep));
}

TEST(ColumnarTest, TruncatedMidColumnNamesSegmentAndColumn) {
  const auto original = synth_trace(600, 4, /*seed=*/61);
  TempFile v3, cut;
  trace::write_trace(v3.path(), original, trace::TraceFormat::kBinaryV3,
                     /*segment_events=*/128);
  const auto footer = trace::try_read_footer(v3.path());
  ASSERT_TRUE(footer.has_value());
  ASSERT_GE(footer->footer.segments.size(), 3u);
  const auto& seg2 = footer->footer.segments[2];

  // Cut three bytes into segment 2's last column payload.
  truncate_copy(v3.path(), cut.path(), seg2.offset + seg2.byte_len - 3);
  try {
    (void)trace::read_trace(cut.path());
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("segment 2"), std::string::npos) << what;
    EXPECT_NE(what.find("in column '"), std::string::npos) << what;
  }

  // Cut inside segment 2's header: still named, still FormatError.
  truncate_copy(v3.path(), cut.path(),
                seg2.offset + trace::columnar::kSegmentHeaderBytes - 2);
  try {
    (void)trace::read_trace(cut.path());
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("segment 2"), std::string::npos)
        << e.what();
  }

  // A cut at a block boundary before the footer is a readable prefix
  // (flush-snapshot semantics), not an error.
  truncate_copy(v3.path(), cut.path(), seg2.offset);
  const auto prefix = trace::read_trace(cut.path());
  EXPECT_EQ(prefix.size(),
            footer->footer.segments[0].count + footer->footer.segments[1].count);
}

TEST(ColumnarTest, CorruptEncodingByteNamesColumn) {
  const auto original = synth_trace(300, 3, /*seed=*/71);
  TempFile v3;
  trace::write_trace(v3.path(), original, trace::TraceFormat::kBinaryV3,
                     /*segment_events=*/128);
  const auto footer = trace::try_read_footer(v3.path());
  ASSERT_TRUE(footer.has_value());
  // Column 0 ("kind")'s encoding byte sits right after tag + count.
  const auto pos = footer->footer.segments[0].offset + 1 + 4;
  {
    std::fstream f(v3.path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(pos));
    const char bad = static_cast<char>(0xee);
    f.write(&bad, 1);
  }
  try {
    (void)trace::read_trace(v3.path());
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("column 'kind'"), std::string::npos) << what;
    EXPECT_NE(what.find("segment 0"), std::string::npos) << what;
  }
}

// --- zone maps, column pruning, counters -----------------------------------

TEST(ColumnarTest, QueriesMatchEagerAcrossVersionsAndCountersAdvance) {
  const auto original = synth_trace(4000, 5, /*seed=*/81);
  auto& reg = obs::MetricsRegistry::global();
  for (const auto format :
       {trace::TraceFormat::kBinary, trace::TraceFormat::kBinaryV3}) {
    TempFile file;
    trace::write_trace(file.path(), original, format, /*segment_events=*/256);
    const auto lazy = trace::open_trace(file.path());
    ASSERT_TRUE(lazy.is_lazy());

    // Zones exist on both segmented versions; v3's are exact.
    const auto zones = lazy.segment_zones(0);
    ASSERT_TRUE(zones.has_value());
    EXPECT_NE(zones->rank_mask, 0u);
    EXPECT_NE(zones->kind_mask, 0u);

    // Rank-window queries match the brute-force in-memory reference.
    const auto t_hi = original.t_max();
    const auto skipped_before =
        reg.counter("trace.decode.segments_skipped").total();
    for (mpi::Rank r = 0; r < original.num_ranks(); ++r) {
      for (const auto& [t0, t1] :
           std::vector<std::pair<support::TimeNs, support::TimeNs>>{
               {t_hi - 500, t_hi},
               {0, 500},
               {t_hi / 2, t_hi / 2 + 1000},
               {0, t_hi}}) {
        std::vector<std::size_t> got, want;
        lazy.for_each_rank_in_window(
            r, t0, t1,
            [&](std::size_t i, const trace::Event&) { got.push_back(i); });
        original.for_each_rank_in_window(
            r, t0, t1,
            [&](std::size_t i, const trace::Event&) { want.push_back(i); });
        EXPECT_EQ(got, want) << "rank " << r << " window [" << t0 << ", "
                             << t1 << "]";
      }
    }
    // The late windows skip every early segment via the directory
    // (counters compile to no-ops under TDBG_METRICS=OFF).
    if constexpr (obs::kMetricsEnabled) {
      EXPECT_GT(reg.counter("trace.decode.segments_skipped").total(),
                skipped_before);
    }
  }
}

TEST(ColumnarTest, ColumnPruningCountsSkippedColumns) {
  const auto original = synth_trace(2000, 4, /*seed=*/91);
  TempFile file;
  trace::write_trace(file.path(), original, trace::TraceFormat::kBinaryV3,
                     /*segment_events=*/256);
  const auto lazy = trace::open_trace(file.path());
  ASSERT_TRUE(lazy.is_lazy());

  auto& reg = obs::MetricsRegistry::global();
  const auto cols_before = reg.counter("trace.decode.columns_skipped").total();
  const auto bytes_before = reg.counter("trace.decode.decoded_bytes").total();

  // Ask for rank + marker only: those fields match the original; the
  // columns the caller promised not to read stay encoded.
  std::size_t visited = 0;
  lazy.for_each_in_segment_cols(
      0, trace::kColRank | trace::kColMarker,
      [&](std::size_t i, const trace::Event& e) {
        const auto want = original.event(i);
        EXPECT_EQ(e.rank, want.rank) << "event " << i;
        EXPECT_EQ(e.marker, want.marker) << "event " << i;
        ++visited;
      });
  EXPECT_EQ(visited, lazy.segment_range(0).second);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_GT(reg.counter("trace.decode.columns_skipped").total(),
              cols_before);
    EXPECT_GT(reg.counter("trace.decode.decoded_bytes").total(), bytes_before);
  }

  // The compressed tier kept the blob resident.
  const auto* seg_store = dynamic_cast<const trace::SegmentedTraceStore*>(
      lazy.store().get());
  ASSERT_NE(seg_store, nullptr);
  const auto stats = seg_store->cache_stats();
  EXPECT_GT(stats.compressed_segments, 0u);
  EXPECT_GT(stats.compressed_bytes, 0u);
}

// --- the encoder against its two-pass predecessor ---------------------------

/// The pre-kernel encoder, kept as the oracle: five runtime-switched
/// passes per column, varints appended a byte at a time.  Also reports
/// which encodings tied for the smallest payload, so the tests can
/// check that the tie order is exercised.
struct OracleColumn {
  columnar::Encoding encoding = columnar::Encoding::kConst;
  std::vector<columnar::Encoding> tied;  ///< all encodings of the best size
};

std::uint64_t oracle_zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::size_t oracle_varint_size(std::uint64_t v) {
  return (static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7;
}

std::uint64_t oracle_storage(const trace::Event& e, std::size_t col) {
  switch (col) {
    case columnar::kColKind: return static_cast<std::uint8_t>(e.kind);
    case columnar::kColRank:
      return static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.rank));
    case columnar::kColMarker: return e.marker;
    case columnar::kColConstruct:
      return static_cast<std::uint32_t>(e.construct + 1);
    case columnar::kColTStart: return oracle_zigzag(e.t_start);
    case columnar::kColTEnd: return oracle_zigzag(e.t_end - e.t_start);
    case columnar::kColPeer: return oracle_zigzag(e.peer);
    case columnar::kColTag: return oracle_zigzag(e.tag);
    case columnar::kColChannelSeq: return e.channel_seq;
    case columnar::kColBytes: return e.bytes;
    default: return e.wildcard ? 1 : 0;
  }
}

std::int64_t oracle_logical(const trace::Event& e, std::size_t col) {
  switch (col) {
    case columnar::kColKind: return static_cast<std::uint8_t>(e.kind);
    case columnar::kColRank: return e.rank;
    case columnar::kColMarker: return static_cast<std::int64_t>(e.marker);
    case columnar::kColConstruct:
      return static_cast<std::int64_t>(e.construct);
    case columnar::kColTStart: return e.t_start;
    case columnar::kColTEnd: return e.t_end;
    case columnar::kColPeer: return e.peer;
    case columnar::kColTag: return e.tag;
    case columnar::kColChannelSeq:
      return static_cast<std::int64_t>(e.channel_seq);
    case columnar::kColBytes: return static_cast<std::int64_t>(e.bytes);
    default: return e.wildcard ? 1 : 0;
  }
}

void oracle_varint(std::vector<std::byte>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::byte>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::byte>(v));
}

std::vector<std::byte> oracle_encode(std::span<const trace::Event> events,
                                     columnar::SegmentZoneInfo* zone_out,
                                     std::vector<OracleColumn>* cols_out) {
  constexpr unsigned kMaxWidth = 56;
  const std::size_t n = events.size();
  columnar::SegmentZoneInfo zi;
  for (const auto& e : events) {
    zi.kind_mask |= 1u << static_cast<std::uint8_t>(e.kind);
    zi.rank_mask |= 1ull << (e.rank >= 0 ? std::min(e.rank, 63) : 63);
  }
  columnar::SegmentHeader h;
  h.count = static_cast<std::uint32_t>(n);
  std::array<std::vector<std::byte>, trace::wire::kNumColumnsV3> payloads;
  std::vector<std::uint64_t> vals(n);
  for (std::size_t c = 0; c < trace::wire::kNumColumnsV3; ++c) {
    OracleColumn oc;
    auto& zone = zi.zones[c];
    for (std::size_t i = 0; i < n; ++i) {
      vals[i] = oracle_storage(events[i], c);
      const auto lv = oracle_logical(events[i], c);
      zone.lo = i == 0 ? lv : std::min(zone.lo, lv);
      zone.hi = i == 0 ? lv : std::max(zone.hi, lv);
    }
    auto& m = h.cols[c];
    auto& payload = payloads[c];
    if (n == 0) {
      if (cols_out != nullptr) cols_out->push_back(oc);
      continue;
    }
    const auto [mn, mx] = std::minmax_element(vals.begin(), vals.end());
    const std::uint64_t vmin = *mn;
    const std::uint64_t vmax = *mx;
    if (vmin == vmax) {
      m.encoding = columnar::Encoding::kConst;
      m.base = vmin;
      if (cols_out != nullptr) cols_out->push_back(oc);
      continue;
    }
    const auto width = static_cast<unsigned>(std::bit_width(vmax - vmin));
    const std::uint64_t size_bp =
        width <= kMaxWidth ? (std::uint64_t{n} * width + 7) / 8 : ~0ull;
    std::uint64_t size_var = 0;
    std::uint64_t size_delta = 0;
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      size_var += oracle_varint_size(vals[i]);
      size_delta += oracle_varint_size(
          oracle_zigzag(static_cast<std::int64_t>(vals[i] - prev)));
      prev = vals[i];
    }
    const std::uint64_t size_raw = 8ull * n;
    const std::uint64_t best =
        std::min({size_bp, size_var, size_delta, size_raw});
    const std::pair<std::uint64_t, columnar::Encoding> sizes[] = {
        {size_bp, columnar::Encoding::kBitPack},
        {size_var, columnar::Encoding::kVarint},
        {size_delta, columnar::Encoding::kDeltaVarint},
        {size_raw, columnar::Encoding::kRaw}};
    for (const auto& [size, enc] : sizes) {
      if (size == best) oc.tied.push_back(enc);
    }
    if (best == size_bp) {
      m.encoding = columnar::Encoding::kBitPack;
      m.width = static_cast<std::uint8_t>(width);
      m.base = vmin;
      std::uint64_t acc = 0;
      unsigned bits = 0;
      for (std::size_t i = 0; i < n; ++i) {
        acc |= (vals[i] - vmin) << bits;
        bits += width;
        while (bits >= 8) {
          payload.push_back(static_cast<std::byte>(acc & 0xff));
          acc >>= 8;
          bits -= 8;
        }
      }
      if (bits > 0) payload.push_back(static_cast<std::byte>(acc & 0xff));
    } else if (best == size_var) {
      m.encoding = columnar::Encoding::kVarint;
      for (std::size_t i = 0; i < n; ++i) oracle_varint(payload, vals[i]);
    } else if (best == size_delta) {
      m.encoding = columnar::Encoding::kDeltaVarint;
      prev = 0;
      for (std::size_t i = 0; i < n; ++i) {
        oracle_varint(payload, oracle_zigzag(
                                   static_cast<std::int64_t>(vals[i] - prev)));
        prev = vals[i];
      }
    } else {
      m.encoding = columnar::Encoding::kRaw;
      payload.resize(size_raw);
      std::memcpy(payload.data(), vals.data(), size_raw);
    }
    m.byte_len = static_cast<std::uint32_t>(payload.size());
    oc.encoding = m.encoding;
    if (cols_out != nullptr) cols_out->push_back(oc);
  }
  support::BinaryWriter w;
  w.put<std::uint8_t>(trace::wire::kRecordSegment);
  w.put<std::uint32_t>(h.count);
  for (const auto& m : h.cols) {
    w.put<std::uint8_t>(static_cast<std::uint8_t>(m.encoding));
    w.put<std::uint8_t>(m.width);
    w.put<std::uint64_t>(m.base);
    w.put<std::uint32_t>(m.byte_len);
  }
  for (const auto& payload : payloads) w.put_raw(payload);
  if (zone_out != nullptr) *zone_out = zi;
  return w.bytes();
}

/// Encodes `events` with both encoders and expects the same block,
/// masks and zones.  Returns the oracle's per-column choices.
std::vector<OracleColumn> expect_same_encoding(
    std::span<const trace::Event> events, const std::string& what) {
  columnar::SegmentZoneInfo want_zi;
  std::vector<OracleColumn> cols;
  const auto want = oracle_encode(events, &want_zi, &cols);
  // Appends after existing bytes, like a writer reusing its buffer.
  std::vector<std::byte> got(3, std::byte{0x5a});
  columnar::SegmentZoneInfo got_zi;
  columnar::encode_segment(events, got, &got_zi);
  EXPECT_TRUE(std::equal(got.begin() + 3, got.end(), want.begin(),
                         want.end()))
      << what << ": block bytes differ (" << got.size() - 3 << " vs "
      << want.size() << ")";
  EXPECT_EQ(got_zi.kind_mask, want_zi.kind_mask) << what;
  EXPECT_EQ(got_zi.rank_mask, want_zi.rank_mask) << what;
  for (std::size_t c = 0; c < trace::wire::kNumColumnsV3; ++c) {
    EXPECT_EQ(got_zi.zones[c].lo, want_zi.zones[c].lo)
        << what << " column " << columnar::column_name(c);
    EXPECT_EQ(got_zi.zones[c].hi, want_zi.zones[c].hi)
        << what << " column " << columnar::column_name(c);
  }
  return cols;
}

/// A random segment whose every field is drawn from a per-segment
/// distribution — constant, narrow, wide, skewed, monotone, or
/// full-width — so that across seeds every encoding wins and sizes tie.
std::vector<trace::Event> random_segment(std::size_t n, std::uint64_t seed) {
  auto rng = support::SplitMix64(seed).split(7);
  const auto pick = [&rng](std::uint64_t shape, std::uint64_t i,
                           std::uint64_t& walk) -> std::uint64_t {
    switch (shape) {
      case 0: return 42;                                    // const
      case 1: return 1000 + rng.next_below(16);             // bitpack
      case 2: return rng.next_below(8) == 0 ? rng.next() >> 20
                                            : rng.next_below(100);  // varint
      case 3: return walk += 1 + rng.next_below(50);        // delta
      case 4: return rng.next() | (1ull << 63);             // raw
      case 5: return rng.next_below(1ull << 56);            // 56-bit
      case 6: return rng.next_below(1ull << 57);            // 57-bit
      case 7: return ~std::uint64_t{0} - rng.next_below(4); // near 2^64
      case 8: return i % 2 == 0 ? 5 : 300;                  // small, tying
      default: return rng.next_below(3);
    }
  };
  std::array<std::uint64_t, 8> shape{};
  for (auto& s : shape) s = rng.next_below(10);
  std::array<std::uint64_t, 8> walk{};
  walk[3] = rng.next() >> 8;
  std::vector<trace::Event> events(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& e = events[i];
    e.kind = static_cast<trace::EventKind>(
        shape[0] == 0 ? 4 : rng.next_below(trace::wire::kMaxEventKind + 1));
    e.rank = static_cast<mpi::Rank>(shape[1] % 3 == 0 ? 2
                                                      : rng.next_below(70));
    e.marker = pick(shape[2], i, walk[2]);
    e.construct = shape[3] % 2 == 0
                      ? trace::kNoConstruct
                      : static_cast<trace::ConstructId>(pick(shape[3], i,
                                                             walk[3]));
    // Times span negative and positive values, and t_end - t_start
    // stays representable.
    e.t_start = static_cast<support::TimeNs>(pick(shape[4], i, walk[4]) >> 2) -
                (support::TimeNs{1} << 61);
    e.t_end = e.t_start + static_cast<support::TimeNs>(
                              pick(shape[5], i, walk[5]) >> 2);
    e.peer = shape[6] % 2 == 0
                 ? mpi::kAnySource
                 : static_cast<mpi::Rank>(rng.next_below(200)) - 100;
    e.tag = shape[6] % 3 == 0 ? mpi::kAnyTag
                              : static_cast<mpi::Tag>(rng.next_below(9)) - 4;
    e.channel_seq = pick(shape[7], i, walk[6]);
    e.bytes = pick(rng.next_below(10), i, walk[7]);
    e.wildcard = shape[7] % 2 == 0 ? false : rng.next_below(2) == 0;
  }
  return events;
}

TEST(ColumnarEncodeTest, KernelMatchesOracleOnRandomSegments) {
  std::set<columnar::Encoding> won;
  std::set<std::pair<columnar::Encoding, columnar::Encoding>> ties;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const std::size_t n = seed < 20 ? seed + 1 : 1 + (seed * 37) % 700;
    const auto events = random_segment(n, seed);
    const auto cols =
        expect_same_encoding(events, "seed " + std::to_string(seed));
    for (const auto& c : cols) {
      won.insert(c.encoding);
      for (std::size_t k = 1; k < c.tied.size(); ++k) {
        ties.insert({c.tied[0], c.tied[k]});
      }
    }
  }
  for (std::size_t e = 0; e < columnar::kNumEncodings; ++e) {
    EXPECT_TRUE(won.count(static_cast<columnar::Encoding>(e)))
        << "no column chose " << columnar::encoding_name(
                                     static_cast<columnar::Encoding>(e));
  }
  // Ties without bitpack (varint = delta, varint = delta = raw) are
  // pinned by the crafted columns of the edge test.
  EXPECT_TRUE(ties.count({columnar::Encoding::kBitPack,
                          columnar::Encoding::kVarint}));
}

TEST(ColumnarEncodeTest, KernelMatchesOracleOnEdgeSegments) {
  // n = 1 and the empty segment.
  expect_same_encoding(random_segment(1, 5), "n=1");
  expect_same_encoding({}, "n=0");
  // All-const columns: default events, kNoConstruct, kAnySource/kAnyTag.
  const std::vector<trace::Event> defaults(257);
  const auto cols = expect_same_encoding(defaults, "all const");
  for (const auto& c : cols) {
    EXPECT_EQ(c.encoding, columnar::Encoding::kConst);
  }

  // Crafted marker columns: bitpack's 56-bit limit and exact ties.
  const auto with_markers = [](std::vector<std::uint64_t> markers) {
    std::vector<trace::Event> events(markers.size());
    for (std::size_t i = 0; i < markers.size(); ++i) {
      events[i].marker = markers[i];
    }
    return events;
  };
  const auto marker_choice = [&](std::vector<std::uint64_t> markers,
                                 const std::string& what) {
    return expect_same_encoding(with_markers(std::move(markers)), what)
        [columnar::kColMarker];
  };
  std::vector<std::uint64_t> w56, w57;
  for (std::uint64_t i = 0; i < 64; ++i) {
    w56.push_back((i * 0x9e3779b97f4a7c15ull) >> 8);
    w57.push_back((i * 0x9e3779b97f4a7c15ull) >> 7);
  }
  w56.push_back((1ull << 56) - 1);
  w57.push_back((1ull << 57) - 1);
  EXPECT_EQ(marker_choice(w56, "width 56").encoding,
            columnar::Encoding::kBitPack);
  EXPECT_NE(marker_choice(w57, "width 57").encoding,
            columnar::Encoding::kBitPack);
  // Near 2^64, with steps of about 2^63: no encoding beats raw.
  EXPECT_EQ(marker_choice({(1ull << 63) + 12345, ~0ull - 77,
                           (1ull << 63) + 999, ~0ull - 5},
                          "near 2^64")
                .encoding,
            columnar::Encoding::kRaw);
  // {5, 300}: bitpack (width 9), varint and delta all take 3 bytes.
  const auto bp_var = marker_choice({5, 300}, "bitpack = varint = delta");
  EXPECT_EQ(bp_var.encoding, columnar::Encoding::kBitPack);
  EXPECT_EQ(bp_var.tied.size(), 3u);
  // {0, 2^57}: no bitpack; varint and delta both take 10 bytes.
  const auto var_delta = marker_choice({0, 1ull << 57}, "varint = delta");
  EXPECT_EQ(var_delta.encoding, columnar::Encoding::kVarint);
  EXPECT_EQ(var_delta.tied.size(), 2u);
  // {2^40, 2^63}: varint, delta and raw all take 16 bytes.
  const auto three = marker_choice({1ull << 40, 1ull << 63},
                                   "varint = delta = raw");
  EXPECT_EQ(three.encoding, columnar::Encoding::kVarint);
  EXPECT_EQ(three.tied.size(), 3u);
}

// --- the v3 writer: same bytes at any thread count and chunking -------------

/// Footer flags as the per-event writer computes them: display order
/// over the whole stream, per-rank marker order.
std::uint32_t expected_flags(const std::vector<trace::Event>& events) {
  bool sorted = true;
  bool monotone = true;
  std::map<int, std::uint64_t> last;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    if (i > 0) {
      const auto& p = events[i - 1];
      const bool before = p.t_start != e.t_start ? p.t_start < e.t_start
                          : p.rank != e.rank     ? p.rank < e.rank
                                                 : p.marker <= e.marker;
      if (!before) sorted = false;
    }
    const auto it = last.find(e.rank);
    if (it != last.end() && e.marker < it->second) monotone = false;
    last[e.rank] = e.marker;
  }
  return (sorted ? trace::wire::kFlagDisplaySorted : 0u) |
         (monotone ? trace::wire::kFlagRankMarkersMonotone : 0u);
}

/// Writes `events` through one `TraceWriter`, calling `write_events`
/// with the given chunk sizes in turn and then with the rest.
void write_chunked(const std::filesystem::path& path, int ranks,
                   const std::vector<trace::Event>& events,
                   std::uint32_t segment_events,
                   const std::vector<std::size_t>& chunks) {
  trace::TraceWriter writer(path, ranks,
                            std::make_shared<trace::ConstructRegistry>(),
                            trace::TraceFormat::kBinaryV3, segment_events);
  std::size_t pos = 0;
  for (const auto c : chunks) {
    const auto k = std::min(c, events.size() - pos);
    writer.write_events(std::span(events).subspan(pos, k));
    pos += k;
  }
  writer.write_events(std::span(events).subspan(pos));
  writer.finish();
}

/// Checks every block of a v3 file against the oracle encoding of its
/// events and the blocks' offsets against the running byte count.
void expect_oracle_blocks(const std::filesystem::path& path,
                          const std::vector<trace::Event>& events) {
  const auto footer = trace::try_read_footer(path);
  ASSERT_TRUE(footer.has_value());
  const auto bytes = slurp(path);
  std::uint64_t offset = trace::wire::kHeaderBytes;
  std::size_t first = 0;
  for (const auto& seg : footer->footer.segments) {
    ASSERT_EQ(seg.offset, offset);
    const auto want = oracle_encode(
        std::span(events).subspan(first, seg.count), nullptr, nullptr);
    ASSERT_EQ(seg.byte_len, want.size());
    EXPECT_EQ(0, std::memcmp(bytes.data() + seg.offset, want.data(),
                             want.size()))
        << "segment at offset " << seg.offset;
    offset += seg.byte_len;
    first += seg.count;
  }
  EXPECT_EQ(first, events.size());
}

/// The segment sizes and pool sizes every writer check runs at.
constexpr std::uint32_t kWriterSegmentSizes[] = {256,
                                                 trace::kDefaultSegmentEvents};
constexpr std::size_t kWriterThreads[] = {1, 2, 4, 8};

TEST(ColumnarWriterTest, SameBytesAtAnyThreadCountChunkingAndSource) {
  const auto events = synth_events(150000, 6, /*seed=*/77);
  const trace::Trace history(6, events, nullptr);
  for (const std::uint32_t seg : kWriterSegmentSizes) {
    TempFile reference;
    {
      exec::ScopedExecutor pool(1);
      trace::write_trace(reference.path(), history,
                         trace::TraceFormat::kBinaryV3, seg);
    }
    const auto want = slurp(reference.path());
    expect_oracle_blocks(reference.path(), events);
    const auto footer = trace::try_read_footer(reference.path());
    ASSERT_TRUE(footer.has_value());
    EXPECT_EQ(footer->footer.flags, expected_flags(events));

    for (const std::size_t threads : kWriterThreads) {
      exec::ScopedExecutor pool(threads);
      const auto tag = "segment_events " + std::to_string(seg) + " x" +
                       std::to_string(threads);
      TempFile whole, chunked, resaved;
      trace::write_trace(whole.path(), history, trace::TraceFormat::kBinaryV3,
                         seg);
      EXPECT_EQ(slurp(whole.path()), want) << tag << " write_trace";
      write_chunked(chunked.path(), 6, events, seg, {1, 7, 255, 4096});
      EXPECT_EQ(slurp(chunked.path()), want) << tag << " chunked";
      const auto lazy = trace::open_trace(reference.path());
      ASSERT_TRUE(lazy.is_lazy());
      trace::write_trace(resaved.path(), lazy, trace::TraceFormat::kBinaryV3,
                         seg);
      EXPECT_EQ(slurp(resaved.path()), want) << tag << " lazy re-save";
    }
  }
}

TEST(ColumnarWriterTest, FooterFlagsMatchPerEventChecksAtSegmentBoundaries) {
  for (const std::uint32_t seg : kWriterSegmentSizes) {
    const auto base = synth_events(5 * std::size_t{seg} + 17, 4, /*seed=*/78);
    ASSERT_EQ(expected_flags(base), trace::wire::kFlagDisplaySorted |
                                        trace::wire::kFlagRankMarkersMonotone);
    // Each case breaks one order at event `at`: inside a segment, on
    // both sides of a boundary, and in the buffered tail.
    for (const std::size_t at :
         {std::size_t{10}, std::size_t{seg}, 2 * std::size_t{seg} - 1,
          3 * std::size_t{seg}, base.size() - 1}) {
      auto unsorted = base;
      unsorted[at].t_start = unsorted[at - 1].t_start - 1;
      auto backwards = base;
      // The rank's previous event, wherever it is, gets a larger marker.
      for (std::size_t j = at; j-- > 0;) {
        if (backwards[j].rank == backwards[at].rank) {
          backwards[at].marker = backwards[j].marker - 1;
          break;
        }
      }
      for (const auto* events : {&unsorted, &backwards}) {
        const auto want = expected_flags(*events);
        ASSERT_NE(want, trace::wire::kFlagDisplaySorted |
                            trace::wire::kFlagRankMarkersMonotone);
        for (const std::size_t threads : kWriterThreads) {
          exec::ScopedExecutor pool(threads);
          for (const auto& chunks :
               {std::vector<std::size_t>{},
                std::vector<std::size_t>{1, 7, 100},
                std::vector<std::size_t>{seg, seg - 1, 2}}) {
            TempFile file;
            write_chunked(file.path(), 4, *events, seg, chunks);
            const auto footer = trace::try_read_footer(file.path());
            ASSERT_TRUE(footer.has_value());
            EXPECT_EQ(footer->footer.flags, want)
                << "segment_events " << seg << ", break at " << at << " x"
                << threads;
            if (threads == 1 && chunks.empty()) {
              expect_oracle_blocks(file.path(), *events);
            }
          }
        }
      }
    }
  }
}

TEST(ColumnarWriterTest, OutOfRangeRankFailsTheCallAndWritesNoneOfIt) {
  for (const std::uint32_t seg : kWriterSegmentSizes) {
    const std::size_t first = seg + 10;  // leaves a buffered tail
    const auto events = synth_events(8 * std::size_t{seg} + 7, 3, /*seed=*/79);
    const std::size_t long_call = events.size() - first;
    // (call length, bad event within the call): in a whole segment from
    // the span, in the segment that tops up the buffer, among the events
    // the call leaves buffered, and in a call too short to fill it.
    const std::pair<std::size_t, std::size_t> cases[] = {
        {long_call, 3 * std::size_t{seg} + 3},
        {long_call, 2},
        {long_call, long_call - 3},
        {5, 3}};
    for (const auto& [len, bad] : cases) {
      for (const std::size_t threads : kWriterThreads) {
        exec::ScopedExecutor pool(threads);
        TempFile file;
        {
          trace::TraceWriter writer(
              file.path(), 3, std::make_shared<trace::ConstructRegistry>(),
              trace::TraceFormat::kBinaryV3, seg);
          writer.write_events(std::span(events).first(first));
          auto call = std::vector<trace::Event>(
              events.begin() + static_cast<std::ptrdiff_t>(first),
              events.begin() + static_cast<std::ptrdiff_t>(first + len));
          call[bad].rank = bad % 2 == 0 ? 3 : -1;
          try {
            writer.write_events(call);
            FAIL() << "expected UsageError";
          } catch (const UsageError& e) {
            EXPECT_NE(std::string(e.what()).find("event rank out of range"),
                      std::string::npos)
                << e.what();
          }
          EXPECT_EQ(writer.events_written(), first);
          writer.finish();
        }
        const auto loaded = trace::read_trace(file.path());
        ASSERT_EQ(loaded.size(), first)
            << "segment_events " << seg << ", bad event " << bad << " x"
            << threads;
        for (std::size_t i = 0; i < first; ++i) {
          ASSERT_TRUE(same_event(loaded.event(i), events[i])) << i;
        }
      }
    }
  }
}

TEST(ColumnarWriterTest, EncodeCountersReportSegmentsAndBlockBytes) {
  if constexpr (!obs::kMetricsEnabled) {
    GTEST_SKIP() << "metrics compiled out";
  }
  auto& reg = obs::MetricsRegistry::global();
  const auto segs0 = reg.counter("trace.encode.segments").total();
  const auto bytes0 = reg.counter("trace.encode.bytes").total();
  const auto history = synth_trace(1000, 4, /*seed=*/80);
  TempFile file;
  exec::ScopedExecutor pool(4);
  trace::write_trace(file.path(), history, trace::TraceFormat::kBinaryV3,
                     /*segment_events=*/128);
  const auto footer = trace::try_read_footer(file.path());
  ASSERT_TRUE(footer.has_value());
  const auto& segments = footer->footer.segments;
  ASSERT_EQ(segments.size(), 8u);
  const auto block_bytes = segments.back().offset + segments.back().byte_len -
                           trace::wire::kHeaderBytes;
  EXPECT_EQ(reg.counter("trace.encode.segments").total() - segs0,
            segments.size());
  EXPECT_EQ(reg.counter("trace.encode.bytes").total() - bytes0, block_bytes);
}

// --- workload artifact identity --------------------------------------------

struct StormPlan {
  std::vector<std::vector<std::array<int, 3>>> sends;  // (dest, tag, payload)
  std::vector<int> recv_count;
};

StormPlan make_storm_plan(int ranks, int msgs_per_rank, std::uint64_t seed) {
  StormPlan plan;
  plan.sends.resize(static_cast<std::size_t>(ranks));
  plan.recv_count.assign(static_cast<std::size_t>(ranks), 0);
  const support::SplitMix64 root(seed);
  for (int s = 0; s < ranks; ++s) {
    auto rng = root.split(static_cast<std::uint64_t>(s));
    for (int m = 0; m < msgs_per_rank; ++m) {
      const int dest =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(ranks)));
      const int tag = static_cast<int>(rng.next_below(5));
      const int payload = static_cast<int>(rng.next_below(100000));
      plan.sends[static_cast<std::size_t>(s)].push_back({dest, tag, payload});
      ++plan.recv_count[static_cast<std::size_t>(dest)];
    }
  }
  return plan;
}

mpi::RankBody storm_body(const StormPlan& plan) {
  return [plan](mpi::Comm& comm) {
    const auto& mine = plan.sends[static_cast<std::size_t>(comm.rank())];
    for (const auto& [dest, tag, payload] : mine) {
      comm.send_value<int>(payload, dest, tag, "storm_send");
    }
    const int quota = plan.recv_count[static_cast<std::size_t>(comm.rank())];
    for (int i = 0; i < quota; ++i) {
      comm.recv_value<int>(mpi::kAnySource, mpi::kAnyTag, nullptr,
                           "storm_recv");
    }
  };
}

mpi::RankBody ring_body(int n) {
  return [n](mpi::Comm& comm) {
    const mpi::Rank r = comm.rank();
    const mpi::Rank next = (r + 1) % n;
    const mpi::Rank prev = (r + n - 1) % n;
    if (r == 0) {
      comm.send_value<int>(42, next, /*tag=*/1);
      comm.recv_value<int>(prev, /*tag=*/1);
    } else {
      const int token = comm.recv_value<int>(prev, /*tag=*/1);
      comm.send_value<int>(token, next, /*tag=*/1);
    }
  };
}

/// Canonical artifact bundle: everything stringified, so "identical"
/// means byte-identical.
struct Artifacts {
  std::string matches;
  std::string traffic;
  std::string graph;
};

Artifacts artifacts_of(const trace::Trace& t, std::size_t threads) {
  exec::ScopedExecutor pool(threads);
  analysis::Session session(t);
  Artifacts a;
  const auto& report = session.match_report();
  std::string m;
  for (const auto& mm : report.matches) {
    m += std::to_string(mm.send_index) + ">" + std::to_string(mm.recv_index) +
         ";";
  }
  for (const auto i : report.unmatched_sends) {
    m += "s" + std::to_string(i) + ";";
  }
  for (const auto i : report.unmatched_recvs) {
    m += "r" + std::to_string(i) + ";";
  }
  a.matches = std::move(m);
  a.traffic = session.traffic().to_string();
  a.graph = graph::to_dot(session.comm_graph().to_export());
  return a;
}

void expect_identical_artifacts_across_everything(const trace::Trace& rec) {
  const auto baseline = artifacts_of(rec, 1);
  for (const auto format :
       {trace::TraceFormat::kBinaryV1, trace::TraceFormat::kBinary,
        trace::TraceFormat::kBinaryV3}) {
    TempFile file;
    trace::write_trace(file.path(), rec, format, /*segment_events=*/256);
    for (const bool lazy : {false, true}) {
      const auto t = lazy ? trace::open_trace(file.path())
                          : trace::read_trace(file.path());
      for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        const auto got = artifacts_of(t, threads);
        const auto tag = std::string(lazy ? "lazy" : "eager") + " v" +
                         std::to_string(static_cast<int>(format)) + " x" +
                         std::to_string(threads);
        EXPECT_EQ(baseline.matches, got.matches) << tag;
        EXPECT_EQ(baseline.traffic, got.traffic) << tag;
        EXPECT_EQ(baseline.graph, got.graph) << tag;
      }
    }
  }
}

TEST(ColumnarTest, StormArtifactsIdenticalAcrossBackendsVersionsThreads) {
  const auto plan = make_storm_plan(8, 40, /*seed=*/55);
  const auto rec = replay::record(8, storm_body(plan));
  ASSERT_TRUE(rec.result.completed) << rec.result.abort_detail;
  expect_identical_artifacts_across_everything(rec.trace);
}

TEST(ColumnarTest, DeadlockRingArtifactsIdenticalAcrossBackendsVersionsThreads) {
  constexpr int kRanks = 6;
  fault::FaultEngine engine(fault::FaultPlan::named("deadlock_ring",
                                                    /*seed=*/3),
                            kRanks);
  replay::RecordOptions options;
  options.fault_engine = &engine;
  const auto rec = replay::record(kRanks, ring_body(kRanks), options);
  ASSERT_FALSE(rec.trace.empty());
  expect_identical_artifacts_across_everything(rec.trace);
}

}  // namespace
}  // namespace tdbg
