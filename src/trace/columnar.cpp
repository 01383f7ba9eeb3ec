#include "trace/columnar.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>

#include "support/error.hpp"

namespace tdbg::trace::columnar {

namespace {

constexpr const char* kColumnNames[wire::kNumColumnsV3] = {
    "kind", "rank",    "marker", "construct",   "t_start", "t_end",
    "peer", "tag",     "channel_seq", "bytes",  "wildcard"};

constexpr const char* kEncodingNames[kNumEncodings] = {
    "const", "bitpack", "varint", "delta+varint", "raw"};

/// Widest bitpack the single-word decode loop supports: one unaligned
/// 8-byte load always covers a value starting at any bit offset within
/// a byte (7 + 56 <= 64).
constexpr unsigned kMaxBitPackWidth = 56;

inline std::uint64_t zigzag64(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag64(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

inline std::size_t varint_size(std::uint64_t v) {
  return (static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7;
}

/// Storage transform of column `C`: field -> u64 column value
/// (bijective per row; `t_end` depends on the same row's `t_start`).
template <std::size_t C>
inline std::uint64_t storage_value(const Event& e) {
  if constexpr (C == kColKind) {
    return static_cast<std::uint8_t>(e.kind);
  } else if constexpr (C == kColRank) {
    return static_cast<std::uint32_t>(e.rank);
  } else if constexpr (C == kColMarker) {
    return e.marker;
  } else if constexpr (C == kColConstruct) {
    // kNoConstruct (0xffffffff) packs as 0 so runtime-synthesized
    // events const- or bitpack-encode to almost nothing.
    return static_cast<std::uint32_t>(e.construct + 1);
  } else if constexpr (C == kColTStart) {
    return zigzag64(e.t_start);
  } else if constexpr (C == kColTEnd) {
    return zigzag64(e.t_end - e.t_start);
  } else if constexpr (C == kColPeer) {
    return zigzag64(e.peer);
  } else if constexpr (C == kColTag) {
    return zigzag64(e.tag);
  } else if constexpr (C == kColChannelSeq) {
    return e.channel_seq;
  } else if constexpr (C == kColBytes) {
    return e.bytes;
  } else {
    static_assert(C == kColWildcard, "unhandled column");
    return e.wildcard ? 1 : 0;
  }
}

/// Logical value of column `C` for the zone map (signed, so min/max
/// match the query-level comparisons).
template <std::size_t C>
inline std::int64_t logical_value(const Event& e) {
  if constexpr (C == kColKind) {
    return static_cast<std::uint8_t>(e.kind);
  } else if constexpr (C == kColRank) {
    return e.rank;
  } else if constexpr (C == kColMarker) {
    return static_cast<std::int64_t>(e.marker);
  } else if constexpr (C == kColConstruct) {
    return static_cast<std::int64_t>(e.construct);
  } else if constexpr (C == kColTStart) {
    return e.t_start;
  } else if constexpr (C == kColTEnd) {
    return e.t_end;
  } else if constexpr (C == kColPeer) {
    return e.peer;
  } else if constexpr (C == kColTag) {
    return e.tag;
  } else if constexpr (C == kColChannelSeq) {
    return static_cast<std::int64_t>(e.channel_seq);
  } else if constexpr (C == kColBytes) {
    return static_cast<std::int64_t>(e.bytes);
  } else {
    static_assert(C == kColWildcard, "unhandled column");
    return e.wildcard ? 1 : 0;
  }
}

inline unsigned char* put_varint(unsigned char* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<unsigned char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<unsigned char>(v);
  return p;
}

/// Pass 1 of the encoder for column `C`: one walk over the events
/// fills `vals` with the storage values and, on the way, gathers the
/// zone, the presence mask (kind and rank columns), and the exact size
/// of every candidate encoding.  Then picks the cheapest encoding; ties
/// go bitpack, varint, delta, raw.  `n` > 0.
template <std::size_t C>
ColumnMeta scan_column(const Event* events, std::size_t n,
                       std::uint64_t* vals, SegmentZoneInfo& zi) {
  std::uint64_t vmin = ~0ull;
  std::uint64_t vmax = 0;
  std::int64_t lo = std::numeric_limits<std::int64_t>::max();
  std::int64_t hi = std::numeric_limits<std::int64_t>::min();
  std::uint64_t size_var = 0;
  std::uint64_t size_delta = 0;
  std::uint64_t prev = 0;
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Event& e = events[i];
    const std::uint64_t v = storage_value<C>(e);
    const std::int64_t lv = logical_value<C>(e);
    vals[i] = v;
    vmin = std::min(vmin, v);
    vmax = std::max(vmax, v);
    lo = std::min(lo, lv);
    hi = std::max(hi, lv);
    size_var += varint_size(v);
    size_delta += varint_size(zigzag64(static_cast<std::int64_t>(v - prev)));
    prev = v;
    if constexpr (C == kColKind) {
      mask |= 1u << static_cast<std::uint8_t>(e.kind);
    } else if constexpr (C == kColRank) {
      mask |= 1ull << (e.rank >= 0 ? std::min(e.rank, 63) : 63);
    }
  }
  zi.zones[C] = wire::ColumnZone{lo, hi};
  if constexpr (C == kColKind) zi.kind_mask = static_cast<std::uint32_t>(mask);
  if constexpr (C == kColRank) zi.rank_mask = mask;

  ColumnMeta m;
  if (vmin == vmax) {
    m.encoding = Encoding::kConst;
    m.base = vmin;
    return m;
  }
  const unsigned width = static_cast<unsigned>(std::bit_width(vmax - vmin));
  const std::uint64_t size_bp =
      width <= kMaxBitPackWidth
          ? (static_cast<std::uint64_t>(n) * width + 7) / 8
          : ~0ull;
  const std::uint64_t size_raw = 8ull * n;
  const std::uint64_t best =
      std::min({size_bp, size_var, size_delta, size_raw});
  if (best == size_bp) {
    m.encoding = Encoding::kBitPack;
    m.width = static_cast<std::uint8_t>(width);
    m.base = vmin;
  } else if (best == size_var) {
    m.encoding = Encoding::kVarint;
  } else if (best == size_delta) {
    m.encoding = Encoding::kDeltaVarint;
  } else {
    m.encoding = Encoding::kRaw;
  }
  m.byte_len = static_cast<std::uint32_t>(best);
  return m;
}

/// Pass 2 of the encoder: writes `vals` in the encoding `m` chose into
/// `out`, which holds exactly `m.byte_len` bytes.
void write_column(const ColumnMeta& m, const std::uint64_t* vals,
                  std::size_t n, unsigned char* out) {
  switch (m.encoding) {
    case Encoding::kConst:
      return;
    case Encoding::kBitPack: {
      // LSB-first bit stream, flushed a 64-bit word at a time; the
      // final partial word contributes only its occupied bytes.
      const unsigned w = m.width;
      std::uint64_t acc = 0;
      unsigned bits = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t x = vals[i] - m.base;
        acc |= x << bits;
        bits += w;
        if (bits >= 64) {
          std::memcpy(out, &acc, 8);
          out += 8;
          bits -= 64;
          // bits > 0 here only if x straddled the word (w <= 56 keeps
          // the shift below 64).
          acc = bits > 0 ? x >> (w - bits) : 0;
        }
      }
      std::memcpy(out, &acc, (bits + 7) / 8);
      return;
    }
    case Encoding::kVarint:
      for (std::size_t i = 0; i < n; ++i) out = put_varint(out, vals[i]);
      return;
    case Encoding::kDeltaVarint: {
      std::uint64_t prev = 0;
      for (std::size_t i = 0; i < n; ++i) {
        out = put_varint(
            out, zigzag64(static_cast<std::int64_t>(vals[i] - prev)));
        prev = vals[i];
      }
      return;
    }
    case Encoding::kRaw:
      std::memcpy(out, vals, 8 * n);
      return;
  }
}

/// Encodes column `C`: scans the events, then appends the payload to
/// `out` at its exact size.  Returns the column's descriptor.
template <std::size_t C>
ColumnMeta encode_column(const Event* events, std::size_t n,
                         std::uint64_t* vals, SegmentZoneInfo& zi,
                         std::vector<std::byte>& out) {
  const ColumnMeta m = scan_column<C>(events, n, vals, zi);
  const std::size_t at = out.size();
  out.resize(at + m.byte_len);
  write_column(m, vals, n, reinterpret_cast<unsigned char*>(out.data()) + at);
  return m;
}

[[noreturn]] void column_error(const std::filesystem::path& path,
                               std::size_t seg, std::size_t col,
                               const std::string& what) {
  throw FormatError(what + " in column '" + kColumnNames[col] +
                    "' of segment " + std::to_string(seg) +
                    " in trace file " + path.string());
}

[[noreturn]] void segment_error(const std::filesystem::path& path,
                                std::size_t seg, const std::string& what) {
  throw FormatError(what + " in segment " + std::to_string(seg) +
                    " in trace file " + path.string());
}

/// Rows per decode tile.  The decode loop processes the segment in
/// tiles: for each tile, every selected column decodes its slice and
/// scatters it into the same ~9 KiB run of events — small enough to
/// stay L1-resident across all eleven column passes instead of the
/// whole multi-megabyte segment being re-walked once per column.
constexpr std::size_t kTileRows = 128;

/// Sequential decode state of one varint/delta-varint column, carried
/// across tiles (varints have no random access).
struct VarintCursor {
  const unsigned char* p = nullptr;
  const unsigned char* end = nullptr;
  std::uint64_t prev = 0;
};

/// Converts one stored value (the on-wire u64 logical form, zigzag
/// still applied for signed fields) into the event's field `C`.
template <std::size_t C>
inline void store_field(Event& e, std::uint64_t v) {
  if constexpr (C == kColKind) {
    e.kind = static_cast<EventKind>(static_cast<std::uint8_t>(v));
  } else if constexpr (C == kColRank) {
    e.rank = static_cast<mpi::Rank>(static_cast<std::uint32_t>(v));
  } else if constexpr (C == kColMarker) {
    e.marker = v;
  } else if constexpr (C == kColConstruct) {
    e.construct = static_cast<std::uint32_t>(v) - 1;
  } else if constexpr (C == kColTStart) {
    e.t_start = unzigzag64(v);
  } else if constexpr (C == kColTEnd) {
    // Storage form is a row-local delta; t_start is always decoded
    // first (column order + the implicit-select rule).
    e.t_end = e.t_start + unzigzag64(v);
  } else if constexpr (C == kColPeer) {
    e.peer = static_cast<mpi::Rank>(unzigzag64(v));
  } else if constexpr (C == kColTag) {
    e.tag = static_cast<mpi::Tag>(unzigzag64(v));
  } else if constexpr (C == kColChannelSeq) {
    e.channel_seq = v;
  } else if constexpr (C == kColBytes) {
    e.bytes = v;
  } else {
    static_assert(C == kColWildcard, "unhandled column");
    e.wildcard = v != 0;
  }
}

/// Columns whose stored domain is a strict subset of u64 and must be
/// range-checked before the narrowing cast above.
template <std::size_t C>
constexpr bool kValidatedColumn =
    C == kColKind || C == kColRank || C == kColConstruct;

template <std::size_t C>
void check_max(std::uint64_t vmax, int num_ranks,
               const std::filesystem::path& path, std::size_t seg) {
  if constexpr (C == kColKind) {
    if (vmax > wire::kMaxEventKind) {
      column_error(path, seg, C,
                   "unknown event kind " + std::to_string(vmax));
    }
  } else if constexpr (C == kColRank) {
    if (num_ranks >= 0 && vmax >= static_cast<std::uint64_t>(num_ranks)) {
      column_error(path, seg, C,
                   "event rank " + std::to_string(vmax) + " out of range");
    }
  } else if constexpr (C == kColConstruct) {
    if (vmax > 0xffffffffull) {
      column_error(path, seg, C, "construct id out of range");
    }
  }
}

/// Decodes rows [i0, i0 + cnt) of column `C` straight into the events'
/// field — no intermediate value buffer, so each tile costs one store
/// per (row, column).  Bitpack/raw columns seek directly; varint
/// columns continue from `vc` (tiles are visited in increasing row
/// order).  `n_fast` is the number of leading rows whose unaligned
/// 8-byte bitpack load lies fully inside the payload.
template <std::size_t C>
void decode_column(const ColumnMeta& m, std::span<const std::byte> payload,
                   VarintCursor& vc, std::size_t n_fast, std::size_t i0,
                   std::size_t cnt, Event* e, int num_ranks,
                   const std::filesystem::path& path, std::size_t seg) {
  std::uint64_t vmax = 0;
  switch (m.encoding) {
    case Encoding::kConst: {
      vmax = m.base;
      for (std::size_t i = 0; i < cnt; ++i) store_field<C>(e[i], m.base);
      break;
    }
    case Encoding::kBitPack: {
      const unsigned w = m.width;  // 1..56, validated by the header parse
      const std::uint64_t mask = (1ull << w) - 1;
      const auto* p = reinterpret_cast<const unsigned char*>(payload.data());
      const std::size_t len = payload.size();
      const std::uint64_t base = m.base;
      std::size_t bitpos = i0 * w;
      std::size_t i = 0;
      const std::size_t fast =
          i0 < n_fast ? std::min(cnt, n_fast - i0) : 0;
      // Batched extraction: one 8-byte load yields every value that
      // lies fully inside the loaded word ((64 - bit_offset) / w of
      // them), instead of one load per value.
      while (i < fast) {
        std::uint64_t word;
        std::memcpy(&word, p + (bitpos >> 3), 8);
        const unsigned o = static_cast<unsigned>(bitpos & 7);
        std::uint64_t rest = word >> o;
        const std::size_t take =
            std::min<std::size_t>(fast - i, (64 - o) / w);
        for (std::size_t j = 0; j < take; ++j) {
          const std::uint64_t v = base + (rest & mask);
          rest >>= w;
          if constexpr (kValidatedColumn<C>) vmax = std::max(vmax, v);
          store_field<C>(e[i + j], v);
        }
        i += take;
        bitpos += take * w;
      }
      for (; i < cnt; ++i) {
        std::uint64_t word = 0;
        const std::size_t byteoff = bitpos >> 3;
        std::memcpy(&word, p + byteoff,
                    std::min<std::size_t>(8, len - byteoff));
        const std::uint64_t v = base + ((word >> (bitpos & 7)) & mask);
        if constexpr (kValidatedColumn<C>) vmax = std::max(vmax, v);
        store_field<C>(e[i], v);
        bitpos += w;
      }
      break;
    }
    case Encoding::kVarint:
    case Encoding::kDeltaVarint: {
      const bool delta = m.encoding == Encoding::kDeltaVarint;
      const unsigned char* p = vc.p;
      const unsigned char* const end = vc.end;
      std::uint64_t prev = vc.prev;
      for (std::size_t i = 0; i < cnt; ++i) {
        std::uint64_t v;
        // Single-byte values dominate every varint column we emit
        // (deltas and sequence gaps are small); peel that case.
        if (p != end && *p < 0x80) {
          v = *p++;
        } else {
          v = 0;
          unsigned shift = 0;
          while (true) {
            if (p == end || shift > 63) {
              column_error(path, seg, C, "corrupt varint");
            }
            const unsigned char b = *p++;
            v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if ((b & 0x80) == 0) break;
            shift += 7;
          }
        }
        if (delta) {
          prev += static_cast<std::uint64_t>(unzigzag64(v));
          v = prev;
        }
        if constexpr (kValidatedColumn<C>) vmax = std::max(vmax, v);
        store_field<C>(e[i], v);
      }
      vc.p = p;
      vc.prev = prev;
      break;
    }
    case Encoding::kRaw: {
      const auto* p = payload.data() + 8 * i0;
      for (std::size_t i = 0; i < cnt; ++i) {
        std::uint64_t v;
        std::memcpy(&v, p + 8 * i, 8);
        if constexpr (kValidatedColumn<C>) vmax = std::max(vmax, v);
        store_field<C>(e[i], v);
      }
      break;
    }
    default:
      column_error(path, seg, C, "unknown column encoding");
  }
  if constexpr (kValidatedColumn<C>) check_max<C>(vmax, num_ranks, path, seg);
}

/// Runtime-index dispatch into the templated per-column decoder.
void decode_column_dyn(std::size_t c, const ColumnMeta& m,
                       std::span<const std::byte> payload, VarintCursor& vc,
                       std::size_t n_fast, std::size_t i0, std::size_t cnt,
                       Event* e, int num_ranks,
                       const std::filesystem::path& path, std::size_t seg) {
  switch (c) {
    case kColKind:
      decode_column<kColKind>(m, payload, vc, n_fast, i0, cnt, e, num_ranks,
                              path, seg);
      return;
    case kColRank:
      decode_column<kColRank>(m, payload, vc, n_fast, i0, cnt, e, num_ranks,
                              path, seg);
      return;
    case kColMarker:
      decode_column<kColMarker>(m, payload, vc, n_fast, i0, cnt, e, num_ranks,
                                path, seg);
      return;
    case kColConstruct:
      decode_column<kColConstruct>(m, payload, vc, n_fast, i0, cnt, e,
                                   num_ranks, path, seg);
      return;
    case kColTStart:
      decode_column<kColTStart>(m, payload, vc, n_fast, i0, cnt, e, num_ranks,
                                path, seg);
      return;
    case kColTEnd:
      decode_column<kColTEnd>(m, payload, vc, n_fast, i0, cnt, e, num_ranks,
                              path, seg);
      return;
    case kColPeer:
      decode_column<kColPeer>(m, payload, vc, n_fast, i0, cnt, e, num_ranks,
                              path, seg);
      return;
    case kColTag:
      decode_column<kColTag>(m, payload, vc, n_fast, i0, cnt, e, num_ranks,
                             path, seg);
      return;
    case kColChannelSeq:
      decode_column<kColChannelSeq>(m, payload, vc, n_fast, i0, cnt, e,
                                    num_ranks, path, seg);
      return;
    case kColBytes:
      decode_column<kColBytes>(m, payload, vc, n_fast, i0, cnt, e, num_ranks,
                               path, seg);
      return;
    case kColWildcard:
      decode_column<kColWildcard>(m, payload, vc, n_fast, i0, cnt, e,
                                  num_ranks, path, seg);
      return;
    default:
      return;
  }
}

}  // namespace

const char* column_name(std::size_t col) {
  return col < wire::kNumColumnsV3 ? kColumnNames[col] : "?";
}

const char* encoding_name(Encoding e) {
  const auto i = static_cast<std::size_t>(e);
  return i < kNumEncodings ? kEncodingNames[i] : "?";
}

void encode_segment(std::span<const Event> events, std::vector<std::byte>& out,
                    SegmentZoneInfo* zone_out) {
  const std::size_t n = events.size();
  SegmentZoneInfo zi;
  std::array<ColumnMeta, wire::kNumColumnsV3> cols{};
  const std::size_t start = out.size();
  out.resize(start + kSegmentHeaderBytes);
  if (n > 0) {
    // Storage values of the column being encoded; one buffer per thread,
    // reused across columns, segments and calls.
    thread_local std::vector<std::uint64_t> vals;
    if (vals.size() < n) vals.resize(n);
    [&]<std::size_t... C>(std::index_sequence<C...>) {
      ((cols[C] = encode_column<C>(events.data(), n, vals.data(), zi, out)),
       ...);
    }(std::make_index_sequence<wire::kNumColumnsV3>{});
  }

  auto* h = reinterpret_cast<unsigned char*>(out.data()) + start;
  const auto put = [&h](const auto v) {
    std::memcpy(h, &v, sizeof v);
    h += sizeof v;
  };
  put(wire::kRecordSegment);
  put(static_cast<std::uint32_t>(n));
  for (const auto& m : cols) {
    put(static_cast<std::uint8_t>(m.encoding));
    put(m.width);
    put(m.base);
    put(m.byte_len);
  }
  if (zone_out != nullptr) *zone_out = zi;
}

SegmentHeader parse_segment_header(std::span<const std::byte> blob,
                                   const std::filesystem::path& path,
                                   std::size_t seg) {
  if (blob.size() < kSegmentHeaderBytes) {
    segment_error(path, seg, "truncated segment header");
  }
  if (std::to_integer<std::uint8_t>(blob[0]) != wire::kRecordSegment) {
    segment_error(path, seg, "bad segment record tag");
  }
  SegmentHeader h;
  const auto* p = reinterpret_cast<const unsigned char*>(blob.data()) + 1;
  std::memcpy(&h.count, p, 4);
  p += 4;
  for (std::size_t c = 0; c < wire::kNumColumnsV3; ++c) {
    auto& m = h.cols[c];
    const std::uint8_t enc = *p++;
    if (enc >= kNumEncodings) {
      column_error(path, seg, c, "unknown column encoding " +
                                     std::to_string(enc));
    }
    m.encoding = static_cast<Encoding>(enc);
    m.width = *p++;
    std::memcpy(&m.base, p, 8);
    p += 8;
    std::memcpy(&m.byte_len, p, 4);
    p += 4;
    // Analytic length checks for the fixed-size encodings: a mismatch
    // means the header and payload disagree (corruption) — fail here,
    // before any decode loop trusts the numbers.
    const auto n = static_cast<std::uint64_t>(h.count);
    switch (m.encoding) {
      case Encoding::kConst:
        if (m.byte_len != 0) {
          column_error(path, seg, c, "const column with payload");
        }
        break;
      case Encoding::kBitPack:
        if (m.width == 0 || m.width > kMaxBitPackWidth ||
            m.byte_len != (n * m.width + 7) / 8) {
          column_error(path, seg, c, "bitpack column length mismatch");
        }
        break;
      case Encoding::kRaw:
        if (m.byte_len != 8 * n) {
          column_error(path, seg, c, "raw column length mismatch");
        }
        break;
      case Encoding::kVarint:
      case Encoding::kDeltaVarint:
        break;
    }
  }
  return h;
}

namespace {

/// The shared tiled decode loop.  `dest(i0, cnt, n)` names the Event
/// run a tile decodes into; `done(i0, cnt, events)` runs after the
/// tile's columns have all been scattered, while the run is cache-hot.
template <typename Dest, typename Done>
DecodeResult decode_tiles(std::span<const std::byte> blob, ColumnSet cols,
                          int num_ranks, const std::filesystem::path& path,
                          std::size_t seg, const Dest& dest, const Done& done) {
  DecodeResult res;
  res.header = parse_segment_header(blob, path, seg);
  const std::size_t n = res.header.count;
  res.block_len = kSegmentHeaderBytes + res.header.payload_bytes();

  ColumnSet eff = cols & kAllColumns;
  if ((eff & (1u << kColTEnd)) != 0) eff |= 1u << kColTStart;

  // Locate (and bounds-check) every column payload up front, so a
  // truncated block fails with the offending column's name whether or
  // not that column was selected.
  std::array<std::span<const std::byte>, wire::kNumColumnsV3> payload;
  std::array<VarintCursor, wire::kNumColumnsV3> cursor;
  std::array<std::size_t, wire::kNumColumnsV3> bp_fast{};
  std::uint64_t off = kSegmentHeaderBytes;
  for (std::size_t c = 0; c < wire::kNumColumnsV3; ++c) {
    const auto& m = res.header.cols[c];
    if (off + m.byte_len > blob.size()) {
      column_error(path, seg, c,
                   "truncated column payload (needs " +
                       std::to_string(off + m.byte_len) + " bytes, have " +
                       std::to_string(blob.size()) + ")");
    }
    payload[c] = blob.subspan(off, m.byte_len);
    off += m.byte_len;
    if ((eff & (1u << c)) == 0 || n == 0) continue;
    res.decoded_bytes += m.byte_len;
    res.decoded_cols |= 1u << c;
    switch (m.encoding) {
      case Encoding::kVarint:
      case Encoding::kDeltaVarint: {
        const auto* p =
            reinterpret_cast<const unsigned char*>(payload[c].data());
        cursor[c] = VarintCursor{p, p + payload[c].size(), 0};
        break;
      }
      case Encoding::kBitPack:
        // Leading rows whose unaligned 8-byte load stays in bounds.
        if (payload[c].size() >= 8) {
          bp_fast[c] = std::min<std::size_t>(
              n, (8 * (payload[c].size() - 8) + 7) / m.width + 1);
        }
        break;
      default:
        break;
    }
  }

  // Tiled decode: each ~kTileRows run of events takes all its columns
  // while hot, turning the column-at-a-time scatter into one streaming
  // pass over the segment.
  for (std::size_t i0 = 0; i0 < n; i0 += kTileRows) {
    const std::size_t cnt = std::min(kTileRows, n - i0);
    Event* e = dest(i0, cnt, n);
    for (std::size_t c = 0; c < wire::kNumColumnsV3; ++c) {
      if ((eff & (1u << c)) == 0) continue;
      decode_column_dyn(c, res.header.cols[c], payload[c], cursor[c],
                        bp_fast[c], i0, cnt, e, num_ranks, path, seg);
    }
    done(i0, cnt, e);
  }

  // A varint column must be consumed exactly by its n rows.
  for (std::size_t c = 0; c < wire::kNumColumnsV3; ++c) {
    if ((res.decoded_cols & (1u << c)) == 0) continue;
    const auto enc = res.header.cols[c].encoding;
    if ((enc == Encoding::kVarint || enc == Encoding::kDeltaVarint) &&
        cursor[c].p != cursor[c].end) {
      column_error(path, seg, c, "trailing bytes after varint column");
    }
  }
  return res;
}

}  // namespace

DecodeResult decode_segment(std::span<const std::byte> blob, ColumnSet cols,
                            int num_ranks, std::vector<Event>& out,
                            const std::filesystem::path& path,
                            std::size_t seg) {
  const auto res = decode_tiles(
      blob, cols, num_ranks, path, seg,
      [&out](std::size_t i0, std::size_t, std::size_t n) {
        // Resize without clearing: every selected field is overwritten,
        // and a reused output vector of the right size skips a
        // multi-MB value-initialization per decode.  Unselected fields
        // are unspecified.
        if (i0 == 0) out.resize(n);
        return out.data() + i0;
      },
      [](std::size_t, std::size_t, const Event*) {});
  out.resize(res.header.count);  // covers the zero-tile (empty) case
  return res;
}

DecodeResult decode_segment_visit(
    std::span<const std::byte> blob, int num_ranks, std::size_t base_index,
    const std::function<void(std::size_t, const Event&)>& visit,
    const std::filesystem::path& path, std::size_t seg) {
  // One tile of events on the stack: a full-segment sweep never
  // materializes more than kTileRows rows, and each row is visited
  // straight out of L1.
  std::array<Event, kTileRows> buf;
  return decode_tiles(
      blob, kAllColumns, num_ranks, path, seg,
      [&buf](std::size_t, std::size_t, std::size_t) { return buf.data(); },
      [&](std::size_t i0, std::size_t cnt, const Event* e) {
        for (std::size_t k = 0; k < cnt; ++k) {
          visit(base_index + i0 + k, e[k]);
        }
      });
}

}  // namespace tdbg::trace::columnar
