#include "trace/trace_io.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <limits>
#include <sstream>

#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/serialize.hpp"
#include "support/strings.hpp"
#include "trace/columnar.hpp"
#include "trace/store.hpp"

namespace tdbg::trace {

namespace {

std::string text_event_line(const Event& e) {
  std::ostringstream os;
  os << "E\t" << static_cast<int>(e.kind) << '\t' << e.rank << '\t'
     << e.marker << '\t' << e.construct << '\t' << e.t_start << '\t'
     << e.t_end << '\t' << e.peer << '\t' << e.tag << '\t' << e.channel_seq
     << '\t' << e.bytes << '\t' << (e.wildcard ? 1 : 0);
  return os.str();
}

bool display_before_or_equal(const Event& a, const Event& b) {
  if (a.t_start != b.t_start) return a.t_start < b.t_start;
  if (a.rank != b.rank) return a.rank < b.rank;
  return a.marker <= b.marker;
}

/// `trace.encode.*` instruments, the write-side counterpart of
/// `trace.decode.*`: v3 segments sealed and the block bytes they
/// encoded to (tag and column headers included).
struct EncodeMetrics {
  obs::Counter& segments =
      obs::MetricsRegistry::global().counter("trace.encode.segments");
  obs::Counter& bytes =
      obs::MetricsRegistry::global().counter("trace.encode.bytes");

  static EncodeMetrics& get() {
    static EncodeMetrics m;
    return m;
  }
};

}  // namespace

TraceWriter::TraceWriter(const std::filesystem::path& path, int num_ranks,
                         std::shared_ptr<const ConstructRegistry> constructs,
                         TraceFormat format, std::uint32_t segment_events)
    : path_(path), constructs_(std::move(constructs)), format_(format),
      num_ranks_(num_ranks),
      segment_events_(std::max<std::uint32_t>(1, segment_events)),
      out_(path, format == TraceFormat::kText
                     ? std::ios::trunc
                     : std::ios::binary | std::ios::trunc) {
  TDBG_CHECK(constructs_ != nullptr, "trace writer needs a construct table");
  if (!out_) {
    throw IoError("cannot open trace file for writing: " + path_.string());
  }
  if (format_ == TraceFormat::kText) {
    out_ << "#tdbg-trace v1\n";
    out_ << "R\t" << num_ranks << "\n";
  } else {
    const char* magic = wire::kMagicV1;
    if (format_ == TraceFormat::kBinary) magic = wire::kMagicV2;
    if (format_ == TraceFormat::kBinaryV3) magic = wire::kMagicV3;
    out_.write(magic, sizeof wire::kMagicV2);
    support::BinaryWriter w;
    w.put<std::int32_t>(num_ranks);
    out_.write(reinterpret_cast<const char*>(w.bytes().data()),
               static_cast<std::streamsize>(w.size()));
  }
  check_stream("header write");
  if (format_ == TraceFormat::kBinary || format_ == TraceFormat::kBinaryV3) {
    TDBG_CHECK(num_ranks_ > 0, "trace needs at least one rank");
    cur_.offset = wire::kHeaderBytes;
    cur_.ranks.assign(static_cast<std::size_t>(num_ranks_), {});
    last_marker_.assign(static_cast<std::size_t>(num_ranks_), 0);
    rank_seen_.assign(static_cast<std::size_t>(num_ranks_), false);
    file_bytes_ = wire::kHeaderBytes;
  }
}

TraceWriter::~TraceWriter() {
  try {
    finish();
  } catch (...) {
    // Destructor must not throw; a failed footer leaves a truncated
    // but detectable file.
  }
}

void TraceWriter::check_stream(const char* op) {
  if (!out_) {
    throw IoError(std::string("trace ") + op + " failed: " + path_.string());
  }
}

void TraceWriter::check_rank(const Event& e) const {
  TDBG_CHECK(e.rank >= 0 && e.rank < num_ranks_, "event rank out of range");
}

void TraceWriter::note_event(const Event& e) {
  check_rank(e);
  const auto r = static_cast<std::size_t>(e.rank);
  if (count_ > 0 && !display_before_or_equal(prev_, e)) {
    display_sorted_ = false;
  }
  if (rank_seen_[r] && e.marker < last_marker_[r]) {
    markers_monotone_ = false;
  }
  rank_seen_[r] = true;
  last_marker_[r] = e.marker;
  prev_ = e;

  if (cur_.count == 0) {
    cur_.t_min = e.t_start;
    cur_.t_max = e.t_end;
  } else {
    cur_.t_min = std::min(cur_.t_min, e.t_start);
    cur_.t_max = std::max(cur_.t_max, e.t_end);
  }
  auto& rk = cur_.ranks[r];
  if (rk.count == 0) {
    rk.marker_lo = e.marker;
    rk.marker_hi = e.marker;
  } else {
    rk.marker_lo = std::min(rk.marker_lo, e.marker);
    rk.marker_hi = std::max(rk.marker_hi, e.marker);
  }
  ++rk.count;
  ++cur_.count;
  ++count_;
  if (cur_.count >= segment_events_) close_segment();
}

void TraceWriter::close_segment() {
  if (cur_.count == 0) return;
  cur_.byte_len = cur_.count * wire::kEventRecordBytes;
  segments_.push_back(std::move(cur_));
  cur_ = wire::SegmentMeta{};
  cur_.offset = wire::kHeaderBytes + count_ * wire::kEventRecordBytes;
  cur_.ranks.assign(static_cast<std::size_t>(num_ranks_), {});
}

void TraceWriter::seal_one(std::span<const Event> seg,
                           SealedSegment& out) const {
  auto& m = out.meta;
  m.count = seg.size();
  m.ranks.assign(static_cast<std::size_t>(num_ranks_), {});
  out.display_sorted = true;
  out.markers_monotone = true;
  out.bad_rank.reset();
  for (std::size_t i = 0; i < seg.size(); ++i) {
    const Event& e = seg[i];
    if (e.rank < 0 || e.rank >= num_ranks_) {
      out.bad_rank = i;
      return;
    }
    if (i > 0 && !display_before_or_equal(seg[i - 1], e)) {
      out.display_sorted = false;
    }
    auto& rk = m.ranks[static_cast<std::size_t>(e.rank)];
    if (rk.count == 0) {
      rk.marker_lo = e.marker;
      rk.marker_hi = e.marker;
    } else {
      // While the rank's markers are monotone, marker_hi is its
      // previous marker; after the first decrease the flag is settled.
      if (e.marker < rk.marker_hi) out.markers_monotone = false;
      rk.marker_lo = std::min(rk.marker_lo, e.marker);
      rk.marker_hi = std::max(rk.marker_hi, e.marker);
    }
    ++rk.count;
  }
  out.block.clear();
  columnar::SegmentZoneInfo zones;
  columnar::encode_segment(seg, out.block, &zones);
  m.byte_len = out.block.size();
  m.t_min = zones.zones[columnar::kColTStart].lo;
  m.t_max = zones.zones[columnar::kColTEnd].hi;
  m.kind_mask = zones.kind_mask;
  m.rank_mask = zones.rank_mask;
  m.zones.assign(zones.zones.begin(), zones.zones.end());
}

void TraceWriter::seal_segments_v3(
    std::span<const std::span<const Event>> segs) {
  if (sealed_.size() < segs.size()) sealed_.resize(segs.size());
  const auto seal = [&](std::size_t s) { seal_one(segs[s], sealed_[s]); };
  if (segs.size() < 2) {
    for (std::size_t s = 0; s < segs.size(); ++s) seal(s);
  } else {
    exec::Executor::global().parallel_for(segs.size(), "trace.encode", seal);
  }
  for (std::size_t s = 0; s < segs.size(); ++s) {
    if (const auto bad = sealed_[s].bad_rank) check_rank(segs[s][*bad]);
  }

  auto& metrics = EncodeMetrics::get();
  for (std::size_t s = 0; s < segs.size(); ++s) {
    auto& sealed = sealed_[s];
    const auto seg = segs[s];
    // The two footer flags across the boundary with what came before.
    if (!sealed.display_sorted ||
        (!segments_.empty() && !display_before_or_equal(prev_, seg.front()))) {
      display_sorted_ = false;
    }
    if (!sealed.markers_monotone) markers_monotone_ = false;
    for (std::size_t r = 0; r < sealed.meta.ranks.size(); ++r) {
      const auto& rk = sealed.meta.ranks[r];
      if (rk.count == 0) continue;
      if (rank_seen_[r] && rk.marker_lo < last_marker_[r]) {
        markers_monotone_ = false;
      }
      rank_seen_[r] = true;
      last_marker_[r] = rk.marker_hi;
    }
    prev_ = seg.back();

    sealed.meta.offset = file_bytes_;
    out_.write(reinterpret_cast<const char*>(sealed.block.data()),
               static_cast<std::streamsize>(sealed.block.size()));
    check_stream("segment write");
    file_bytes_ += sealed.block.size();
    metrics.segments.add(-1);
    metrics.bytes.add(-1, sealed.block.size());
    segments_.push_back(std::move(sealed.meta));
  }
}

void TraceWriter::write_events_v3(std::span<const Event> events) {
  const std::size_t seg_events = segment_events_;
  const std::size_t fill = seg_buf_.size();
  // Top up the carried-over tail first; it seals as the first segment
  // of this call once full.
  const std::size_t head = std::min(events.size(), seg_events - fill);
  std::vector<std::span<const Event>> segs;
  std::size_t pos = 0;
  if (fill > 0) {
    seg_buf_.insert(seg_buf_.end(), events.begin(),
                    events.begin() + static_cast<std::ptrdiff_t>(head));
    pos = head;
    if (seg_buf_.size() == seg_events) segs.emplace_back(seg_buf_);
  }
  // Whole segments straight from the caller's span.
  for (; events.size() - pos >= seg_events; pos += seg_events) {
    segs.push_back(events.subspan(pos, seg_events));
  }
  const bool topped_up = fill > 0 && seg_buf_.size() == seg_events;
  const auto rest = events.subspan(pos);
  // The events this call leaves buffered are rank-checked now, so that
  // a bad rank fails the call that wrote it.
  const auto left_open = fill > 0 && !topped_up ? events.first(head) : rest;
  try {
    for (const Event& e : left_open) check_rank(e);
    seal_segments_v3(segs);
  } catch (const UsageError&) {
    seg_buf_.resize(fill);
    throw;
  }
  if (topped_up) seg_buf_.clear();
  seg_buf_.insert(seg_buf_.end(), rest.begin(), rest.end());
  count_ += events.size();
}

void TraceWriter::write_event(const Event& event) {
  write_events({&event, 1});
}

void TraceWriter::write_events(std::span<const Event> events) {
  if (events.empty()) return;
  std::lock_guard lk(mu_);
  TDBG_CHECK(!finished_, "write_event after finish");
  if (format_ == TraceFormat::kText) {
    for (const Event& e : events) out_ << text_event_line(e) << '\n';
    count_ += events.size();
  } else if (format_ == TraceFormat::kBinaryV3) {
    write_events_v3(events);
  } else {
    scratch_.clear();
    for (const Event& e : events) {
      wire::encode_event(scratch_, e);
      if (format_ == TraceFormat::kBinary) {
        note_event(e);
      }
    }
    if (format_ != TraceFormat::kBinary) count_ += events.size();
    out_.write(reinterpret_cast<const char*>(scratch_.bytes().data()),
               static_cast<std::streamsize>(scratch_.size()));
  }
  check_stream("write");
}

void TraceWriter::finish() {
  std::lock_guard lk(mu_);
  if (finished_) return;
  finished_ = true;
  const auto table = constructs_->snapshot();
  if (format_ == TraceFormat::kText) {
    for (std::size_t id = 0; id < table.size(); ++id) {
      out_ << "C\t" << id << '\t' << table[id].line << '\t' << table[id].name
           << '\t' << table[id].file << '\n';
    }
  } else {
    // The v3 tail segment writes its own block (and uses scratch_), so
    // it must be sealed before the footer encoding starts.
    if (format_ == TraceFormat::kBinaryV3 && !seg_buf_.empty()) {
      const std::span<const Event> tail(seg_buf_);
      seal_segments_v3({&tail, 1});
      seg_buf_.clear();
    }
    scratch_.clear();
    wire::encode_construct_table(scratch_, table);
    if (format_ == TraceFormat::kBinary) {
      close_segment();
      wire::Footer footer;
      footer.flags = (display_sorted_ ? wire::kFlagDisplaySorted : 0u) |
                     (markers_monotone_ ? wire::kFlagRankMarkersMonotone : 0u);
      footer.segment_events = segment_events_;
      footer.event_count = count_;
      footer.segments = std::move(segments_);
      wire::encode_directory(scratch_, footer);
      // Trailer: fixed-width records make the footer offset computable.
      scratch_.put<std::uint64_t>(wire::kHeaderBytes +
                                  count_ * wire::kEventRecordBytes);
      scratch_.put_raw(std::as_bytes(std::span(wire::kFooterMagic)));
    } else if (format_ == TraceFormat::kBinaryV3) {
      wire::Footer footer;
      footer.version = 3;
      footer.flags = (display_sorted_ ? wire::kFlagDisplaySorted : 0u) |
                     (markers_monotone_ ? wire::kFlagRankMarkersMonotone : 0u);
      footer.segment_events = segment_events_;
      footer.event_count = count_;
      footer.segments = std::move(segments_);
      wire::encode_directory_v3(scratch_, footer);
      // Trailer: v3 blocks are variable-width, so the footer offset is
      // the tracked running byte count.
      scratch_.put<std::uint64_t>(file_bytes_);
      scratch_.put_raw(std::as_bytes(std::span(wire::kFooterMagicV3)));
    }
    out_.write(reinterpret_cast<const char*>(scratch_.bytes().data()),
               static_cast<std::streamsize>(scratch_.size()));
  }
  out_.flush();
  check_stream("finish");
  out_.close();
}

namespace {

/// A file's rank count, which must be positive.
int checked_num_ranks(std::int64_t num_ranks, const std::string& source) {
  if (num_ranks <= 0 || num_ranks > std::numeric_limits<int>::max()) {
    throw FormatError("rank count " + std::to_string(num_ranks) +
                      " is not positive in trace " + source);
  }
  return static_cast<int>(num_ranks);
}

[[noreturn]] void throw_rank_error(mpi::Rank rank, int num_ranks,
                                   const std::string& source) {
  throw FormatError("event rank " + std::to_string(rank) + " outside [0, " +
                    std::to_string(num_ranks) + ") in trace " + source);
}

Trace read_binary(const std::vector<std::byte>& bytes,
                  const std::filesystem::path& path) {
  support::BinaryReader r(bytes);
  r.seek(sizeof wire::kMagicV1);
  const int num_ranks =
      checked_num_ranks(r.get<std::int32_t>(), "file " + path.string());
  std::vector<Event> events;
  bool saw_end = false;
  while (!r.exhausted()) {
    const auto record_offset = r.position();
    const auto tag = r.get<std::uint8_t>();
    if (tag == wire::kRecordEnd) {
      saw_end = true;
      break;
    }
    if (tag != wire::kRecordEvent) {
      throw FormatError("unknown record tag in trace file " + path.string());
    }
    if (r.remaining() + 1 < wire::kEventRecordBytes) {
      throw FormatError("truncated event record in trace file " +
                        path.string() + " at offset " +
                        std::to_string(record_offset));
    }
    // The kind byte follows the record tag; validate it before the
    // decode so a corrupt byte can never masquerade as a real kind.
    const auto kind = std::to_integer<std::uint8_t>(bytes[r.position()]);
    if (!wire::valid_event_kind(kind)) {
      throw FormatError("unknown event kind " + std::to_string(kind) +
                        " in trace file " + path.string() + " at offset " +
                        std::to_string(record_offset + 1));
    }
    events.push_back(wire::decode_event(r));
    const mpi::Rank rank = events.back().rank;
    if (rank < 0 || rank >= num_ranks) {
      throw_rank_error(rank, num_ranks,
                       "file " + path.string() + " at offset " +
                           std::to_string(record_offset));
    }
  }
  auto registry = std::make_shared<ConstructRegistry>();
  if (saw_end) {
    try {
      registry->restore(wire::decode_construct_table(r));
    } catch (const FormatError& e) {
      throw FormatError("truncated construct table in trace file " +
                        path.string() + ": " + e.what());
    }
    // Anything after the construct table is the v2 directory +
    // trailer; the eager reader rebuilds its own indexes, so it is
    // skipped (and may be truncated) here.
  }
  return Trace(num_ranks, std::move(events), std::move(registry));
}

/// Eager v3 reader: walks the segment blocks sequentially.  A file cut
/// at a block boundary before the footer yields the segment-aligned
/// event prefix; a cut inside a block is corruption (`FormatError`
/// naming the segment and column, from the columnar decoder).
Trace read_binary_v3(const std::vector<std::byte>& bytes,
                     const std::filesystem::path& path) {
  support::BinaryReader r(bytes);
  r.seek(sizeof wire::kMagicV3);
  const int num_ranks =
      checked_num_ranks(r.get<std::int32_t>(), "file " + path.string());
  std::vector<Event> events;
  std::vector<Event> seg_events;
  bool saw_end = false;
  std::size_t seg = 0;
  while (!r.exhausted()) {
    const auto tag = std::to_integer<std::uint8_t>(bytes[r.position()]);
    if (tag == wire::kRecordEnd) {
      r.seek(r.position() + 1);
      saw_end = true;
      break;
    }
    if (tag != wire::kRecordSegment) {
      throw FormatError("unknown record tag in trace file " + path.string());
    }
    const auto res = columnar::decode_segment(
        std::span(bytes).subspan(r.position()), columnar::kAllColumns,
        num_ranks, seg_events, path, seg);
    events.insert(events.end(), seg_events.begin(), seg_events.end());
    r.seek(r.position() + static_cast<std::size_t>(res.block_len));
    ++seg;
  }
  auto registry = std::make_shared<ConstructRegistry>();
  if (saw_end) {
    try {
      registry->restore(wire::decode_construct_table(r));
    } catch (const FormatError& e) {
      throw FormatError("truncated construct table in trace file " +
                        path.string() + ": " + e.what());
    }
    // The v3 directory + trailer follow; the eager reader rebuilds its
    // own indexes, so they are skipped here.
  }
  return Trace(num_ranks, std::move(events), std::move(registry));
}

/// Parses one integer field of a text-trace line.  Anything but a
/// whole decimal number that fits `T` is a `FormatError`.
template <typename T>
T parse_field(const std::string& field, const std::string& line) {
  T value{};
  const char* end = field.data() + field.size();
  const auto [p, ec] = std::from_chars(field.data(), end, value);
  if (ec != std::errc() || p != end) {
    throw FormatError("bad field '" + field + "' in trace line: " + line);
  }
  return value;
}

Trace read_text(const std::string& content) {
  int num_ranks = 0;
  std::vector<Event> events;
  std::vector<std::pair<std::uint32_t, ConstructInfo>> constructs;
  std::istringstream in(content);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto fields = support::split(line, '\t');
    if (fields[0] == "R") {
      if (fields.size() != 2) throw FormatError("bad R line");
      num_ranks = checked_num_ranks(parse_field<std::int64_t>(fields[1], line),
                                    "line: " + line);
    } else if (fields[0] == "E") {
      if (fields.size() != 12) throw FormatError("bad E line: " + line);
      const int kind = parse_field<int>(fields[1], line);
      if (kind < 0 || !wire::valid_event_kind(static_cast<std::uint8_t>(kind))) {
        throw FormatError("unknown event kind " + std::to_string(kind) +
                          " in trace line: " + line);
      }
      Event e;
      e.kind = static_cast<EventKind>(kind);
      e.rank = parse_field<mpi::Rank>(fields[2], line);
      e.marker = parse_field<std::uint64_t>(fields[3], line);
      e.construct = parse_field<ConstructId>(fields[4], line);
      e.t_start = parse_field<support::TimeNs>(fields[5], line);
      e.t_end = parse_field<support::TimeNs>(fields[6], line);
      e.peer = parse_field<mpi::Rank>(fields[7], line);
      e.tag = parse_field<mpi::Tag>(fields[8], line);
      e.channel_seq = parse_field<mpi::ChannelSeq>(fields[9], line);
      e.bytes = parse_field<std::uint64_t>(fields[10], line);
      e.wildcard = parse_field<int>(fields[11], line) != 0;
      events.push_back(e);
    } else if (fields[0] == "C") {
      if (fields.size() != 5) throw FormatError("bad C line: " + line);
      ConstructInfo c;
      c.line = parse_field<std::int32_t>(fields[2], line);
      c.name = fields[3];
      c.file = fields[4];
      constructs.emplace_back(parse_field<std::uint32_t>(fields[1], line),
                              std::move(c));
    } else {
      throw FormatError("unknown trace line type: " + fields[0]);
    }
  }
  if (num_ranks == 0) throw FormatError("text trace missing R line");
  for (const auto& e : events) {
    if (e.rank < 0 || e.rank >= num_ranks) {
      throw_rank_error(e.rank, num_ranks,
                       "text (marker " + std::to_string(e.marker) + ")");
    }
  }
  // The writer numbers its C lines 0..n-1, so a larger id is corrupt
  // (and would otherwise size the table from the file).
  std::vector<ConstructInfo> table(constructs.size());
  for (auto& [id, info] : constructs) {
    if (id >= table.size()) {
      throw FormatError("construct id " + std::to_string(id) +
                        " out of range for " + std::to_string(table.size()) +
                        " C line(s) in text trace");
    }
    table[id] = std::move(info);
  }
  auto registry = std::make_shared<ConstructRegistry>();
  registry->restore(std::move(table));
  return Trace(num_ranks, std::move(events), std::move(registry));
}

bool has_magic(const std::string& content, const char (&magic)[8]) {
  return content.size() >= sizeof magic &&
         std::memcmp(content.data(), magic, sizeof magic) == 0;
}

}  // namespace

Trace read_trace(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open trace file: " + path.string());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  if (has_magic(content, wire::kMagicV1) || has_magic(content, wire::kMagicV2)) {
    std::vector<std::byte> bytes(content.size());
    std::memcpy(bytes.data(), content.data(), content.size());
    return read_binary(bytes, path);
  }
  if (has_magic(content, wire::kMagicV3)) {
    std::vector<std::byte> bytes(content.size());
    std::memcpy(bytes.data(), content.data(), content.size());
    return read_binary_v3(bytes, path);
  }
  return read_text(content);
}

std::optional<TraceFooter> try_read_footer(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open trace file: " + path.string());
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  if (file_size < wire::kHeaderBytes + wire::kTrailerBytes) {
    return std::nullopt;
  }

  char header[wire::kHeaderBytes];
  in.seekg(0);
  in.read(header, sizeof header);
  if (!in) return std::nullopt;
  const bool v2 =
      std::memcmp(header, wire::kMagicV2, sizeof wire::kMagicV2) == 0;
  const bool v3 =
      std::memcmp(header, wire::kMagicV3, sizeof wire::kMagicV3) == 0;
  if (!v2 && !v3) return std::nullopt;
  std::int32_t num_ranks = 0;
  std::memcpy(&num_ranks, header + sizeof wire::kMagicV2, sizeof num_ranks);

  char trailer[wire::kTrailerBytes];
  in.seekg(static_cast<std::streamoff>(file_size - wire::kTrailerBytes));
  in.read(trailer, sizeof trailer);
  const char* footer_magic = v2 ? wire::kFooterMagic : wire::kFooterMagicV3;
  if (!in || std::memcmp(trailer + sizeof(std::uint64_t), footer_magic,
                         sizeof wire::kFooterMagic) != 0) {
    return std::nullopt;  // no trailer: flush-on-demand prefix or crash
  }
  std::uint64_t footer_offset = 0;
  std::memcpy(&footer_offset, trailer, sizeof footer_offset);
  if (footer_offset < wire::kHeaderBytes ||
      footer_offset > file_size - wire::kTrailerBytes) {
    throw FormatError("trace footer offset out of range in " + path.string());
  }

  std::vector<std::byte> footer_bytes(
      static_cast<std::size_t>(file_size - wire::kTrailerBytes - footer_offset));
  in.seekg(static_cast<std::streamoff>(footer_offset));
  in.read(reinterpret_cast<char*>(footer_bytes.data()),
          static_cast<std::streamsize>(footer_bytes.size()));
  if (!in) throw IoError("trace footer read failed: " + path.string());

  try {
    support::BinaryReader r(footer_bytes);
    TraceFooter result;
    result.num_ranks = checked_num_ranks(num_ranks, "file " + path.string());
    if (r.get<std::uint8_t>() != wire::kRecordEnd) {
      throw FormatError("footer does not start with the construct table");
    }
    result.footer.constructs = wire::decode_construct_table(r);
    const auto dir_tag = r.get<std::uint8_t>();
    if (v3) {
      if (dir_tag != wire::kRecordDirectoryV3) {
        throw FormatError("footer is missing the v3 segment directory");
      }
      wire::decode_directory_v3(r, num_ranks, &result.footer);
    } else {
      if (dir_tag != wire::kRecordDirectory) {
        throw FormatError("footer is missing the segment directory");
      }
      wire::decode_directory(r, num_ranks, &result.footer);
    }
    return result;
  } catch (const FormatError& e) {
    throw FormatError("corrupt trace footer in " + path.string() + ": " +
                      e.what());
  }
}

Trace open_trace(const std::filesystem::path& path,
                 const TraceOpenOptions& options) {
  auto footer = try_read_footer(path);
  if (footer && footer->footer.display_sorted() &&
      footer->footer.rank_markers_monotone()) {
    return Trace(std::make_shared<SegmentedTraceStore>(
        path, footer->num_ranks, std::move(footer->footer),
        options.cache_segments, options.prefetch));
  }
  // v1, text, footerless prefix, or an unsorted stream: the directory
  // binary searches would be wrong, so fall back to the eager store.
  return read_trace(path);
}

TraceFileInfo inspect_trace(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open trace file: " + path.string());
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);

  TraceFileInfo info;
  info.file_bytes = file_size;

  char magic[8] = {};
  if (file_size >= sizeof magic) {
    in.read(magic, sizeof magic);
  }
  const bool v1 = std::memcmp(magic, wire::kMagicV1, sizeof magic) == 0;
  const bool v2 = std::memcmp(magic, wire::kMagicV2, sizeof magic) == 0;
  const bool v3 = std::memcmp(magic, wire::kMagicV3, sizeof magic) == 0;

  if (v2 || v3) {
    info.format = v3 ? "binary-v3" : "binary-v2";
    if (auto footer = try_read_footer(path)) {
      info.has_footer = true;
      info.num_ranks = footer->num_ranks;
      info.event_count = footer->footer.event_count;
      info.segment_count = footer->footer.segments.size();
      info.segment_events = footer->footer.segment_events;
      info.display_sorted = footer->footer.display_sorted();
      info.rank_markers_monotone = footer->footer.rank_markers_monotone();
      info.construct_count = footer->footer.constructs.size();
      if (!footer->footer.segments.empty()) {
        info.has_time_span = true;
        info.t_min = footer->footer.segments.front().t_min;
        for (const auto& seg : footer->footer.segments) {
          info.t_max = std::max(info.t_max, seg.t_max);
        }
      }
      return info;
    }
  } else if (v1) {
    info.format = "binary-v1";
  } else {
    // Text traces have no magic; count record lines.
    info.format = "text";
    in.clear();
    in.seekg(0);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      if (line[0] == 'E') ++info.event_count;
      else if (line[0] == 'C') ++info.construct_count;
      else if (line[0] == 'R' && line.size() > 2) {
        info.num_ranks = std::atoi(line.c_str() + 2);
      }
    }
    return info;
  }

  // Binary stream without a usable footer: walk the records counting
  // tags (no event decode).
  std::string content;
  in.clear();
  in.seekg(0);
  content.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  std::vector<std::byte> bytes(content.size());
  std::memcpy(bytes.data(), content.data(), content.size());
  support::BinaryReader r(bytes);
  r.seek(sizeof magic);
  info.num_ranks = r.get<std::int32_t>();
  if (v3) {
    // v3: hop over the segment blocks via their headers.
    while (!r.exhausted()) {
      const auto tag = std::to_integer<std::uint8_t>(bytes[r.position()]);
      if (tag == wire::kRecordEnd) {
        r.seek(r.position() + 1);
        info.construct_count = r.get<std::uint32_t>();
        break;
      }
      if (tag != wire::kRecordSegment) break;
      columnar::SegmentHeader h;
      try {
        h = columnar::parse_segment_header(
            std::span(bytes).subspan(r.position()), path, info.segment_count);
      } catch (const FormatError&) {
        break;  // truncated header: report the prefix count
      }
      const auto block =
          columnar::kSegmentHeaderBytes + h.payload_bytes();
      if (block > r.remaining()) break;  // truncated mid-block
      r.seek(r.position() + static_cast<std::size_t>(block));
      info.event_count += h.count;
      ++info.segment_count;
    }
    return info;
  }
  while (!r.exhausted()) {
    const auto tag = r.get<std::uint8_t>();
    if (tag == wire::kRecordEnd) {
      info.construct_count = r.get<std::uint32_t>();
      break;
    }
    if (tag != wire::kRecordEvent ||
        r.remaining() + 1 < wire::kEventRecordBytes) {
      break;  // truncated or foreign record: report the prefix count
    }
    r.seek(r.position() + wire::kEventRecordBytes - 1);
    ++info.event_count;
  }
  return info;
}

std::vector<ColumnStorageInfo> inspect_columns(
    const std::filesystem::path& path, const TraceFooter& footer) {
  std::vector<ColumnStorageInfo> out;
  if (footer.footer.version != 3) return out;
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open trace file: " + path.string());

  out.resize(wire::kNumColumnsV3);
  std::vector<std::array<std::size_t, columnar::kNumEncodings>> used(
      wire::kNumColumnsV3);
  for (auto& u : used) u.fill(0);
  std::vector<std::byte> buf(columnar::kSegmentHeaderBytes);
  for (std::size_t s = 0; s < footer.footer.segments.size(); ++s) {
    const auto& meta = footer.footer.segments[s];
    in.seekg(static_cast<std::streamoff>(meta.offset));
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
    if (!in) throw IoError("trace segment header read failed: " + path.string());
    const auto h = columnar::parse_segment_header(buf, path, s);
    for (std::size_t c = 0; c < wire::kNumColumnsV3; ++c) {
      out[c].bytes += h.cols[c].byte_len;
      ++used[c][static_cast<std::size_t>(h.cols[c].encoding)];
    }
  }
  for (std::size_t c = 0; c < wire::kNumColumnsV3; ++c) {
    out[c].name = columnar::column_name(c);
    for (std::size_t e = 0; e < columnar::kNumEncodings; ++e) {
      if (used[c][e] == 0) continue;
      out[c].encodings.emplace_back(
          columnar::encoding_name(static_cast<columnar::Encoding>(e)),
          used[c][e]);
    }
    std::stable_sort(out[c].encodings.begin(), out[c].encodings.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
  }
  return out;
}

void write_trace(const std::filesystem::path& path, const Trace& trace,
                 TraceFormat format, std::uint32_t segment_events) {
  TraceWriter writer(path, trace.num_ranks(), trace.constructs_ptr(), format,
                     segment_events);
  const bool v3 = format == TraceFormat::kBinaryV3;
  // The row formats encode each call into one scratch buffer, which a
  // small batch keeps small.
  constexpr std::size_t kRowBatch = 8192;
  if (!trace.is_lazy()) {
    // In memory the events are already one display-order span: no copy,
    // and a v3 save seals all its segments in one call.
    const std::span<const Event> all(trace.events());
    const std::size_t step = v3 ? std::max<std::size_t>(1, all.size()) : kRowBatch;
    for (std::size_t pos = 0; pos < all.size(); pos += step) {
      writer.write_events(all.subspan(pos, std::min(step, all.size() - pos)));
    }
  } else {
    // A lazy source streams through a bounded buffer and is never fully
    // materialized; a v3 batch holds one segment per pool thread.
    const std::size_t batch =
        v3 ? exec::Executor::global().threads() *
                 std::max<std::size_t>(1, segment_events)
           : kRowBatch;
    std::vector<Event> buf;
    buf.reserve(batch);
    trace.for_each_event([&](std::size_t, const Event& e) {
      buf.push_back(e);
      if (buf.size() == batch) {
        writer.write_events(buf);
        buf.clear();
      }
    });
    writer.write_events(buf);
  }
  writer.finish();
}

}  // namespace tdbg::trace
