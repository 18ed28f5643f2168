#include "nn/serialize.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

#include "fault/fault.h"

namespace pf::nn {

namespace {

void collect(Module& m, std::vector<Tensor*>& out) {
  for (Param& p : m.local_params()) out.push_back(&p.var->value);
  for (Buffer& b : m.local_buffers()) out.push_back(&b.value);
  for (Module* c : m.children()) collect(*c, out);
}

constexpr Frame kModelFrameV0{kCheckpointMagicV0, -1, -1, false};
constexpr Frame kModelFrameV1{kCheckpointMagicV1, kCheckpointVersion};

}  // namespace

std::vector<Tensor*> checkpoint_tensors(Module& module) {
  std::vector<Tensor*> out;
  collect(module, out);
  return out;
}

uint64_t fnv1a(const char* p, size_t n) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(p[i]);
    h *= 0x100000001B3ull;
  }
  return h;
}

void atomic_write(const std::string& path,
                  const std::function<void(std::ofstream&)>& fill) {
  // Crash safety: write the whole file to `<path>.tmp`, then rename over the
  // target. rename(2) replaces atomically on POSIX, so at every instant
  // `path` holds either the complete previous file or the complete new one
  // -- a kill -9 mid-write can only ever orphan a temp file. (Writing the
  // target in place was the bug: a crash left a truncated checkpoint at the
  // only path.)
  const std::string tmp = path + ".tmp";
  try {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("checkpoint: cannot open " + tmp);
    fill(os);
    os.flush();
    if (!os) throw std::runtime_error("checkpoint: write failed: " + tmp);
  } catch (...) {
    std::remove(tmp.c_str());  // never leave half-written temp files behind
    throw;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: rename to " + path + " failed");
  }
}

// ---- ByteWriter ----

ByteWriter::ByteWriter(const Frame& frame) : checksummed_(frame.checksummed) {
  u64(frame.magic);
  if (frame.version >= 0) u8(static_cast<uint8_t>(frame.version));
  if (frame.kind >= 0) u8(static_cast<uint8_t>(frame.kind));
  if (checksummed_) buf_.resize(buf_.size() + 2 * sizeof(uint64_t));
  payload_ = buf_.size();
}

void ByteWriter::f64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void ByteWriter::bytes(const void* p, size_t n) {
  const char* c = static_cast<const char*>(p);
  buf_.insert(buf_.end(), c, c + n);
}

void ByteWriter::shape(const Shape& s) {
  u64(s.size());
  for (int64_t d : s) u64(static_cast<uint64_t>(d));
}

void ByteWriter::tensor(const Tensor& t) {
  shape(t.shape());
  bytes(t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
}

void ByteWriter::save(const std::string& path) {
  if (checksummed_) {
    const uint64_t header[2] = {
        fnv1a(buf_.data() + payload_, buf_.size() - payload_),
        buf_.size() - payload_};
    std::memcpy(buf_.data() + payload_ - sizeof(header), header,
                sizeof(header));
  }
  atomic_write(path, [this](std::ofstream& os) {
    fault::on_write_bytes(static_cast<int64_t>(buf_.size()));
    os.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  });
}

// ---- ByteReader ----

ByteReader::ByteReader(std::string path) : path_(std::move(path)) {
  std::ifstream is(path_, std::ios::binary | std::ios::ate);
  if (!is) fail("file", "cannot open");
  const std::streamoff size = is.tellg();
  if (size < 0) fail("file", "cannot size");
  data_.resize(static_cast<size_t>(size));
  is.seekg(0);
  is.read(data_.data(), size);
  if (!is) fail("file", "read failed");
  end_ = data_.size();
}

void ByteReader::fail(const std::string& field, const std::string& why) const {
  throw CheckpointError("checkpoint " + path_ + ": " + field + ": " + why);
}

size_t ByteReader::frame(std::initializer_list<Frame> frames) {
  const uint64_t magic = u64("magic");
  size_t i = 0;
  for (const Frame& f : frames) {
    if (f.magic == magic) break;
    ++i;
  }
  if (i == frames.size()) fail("magic", "not a recognized artifact");
  const Frame& f = frames.begin()[i];
  auto expect = [this](int want, const char* field) {
    if (want < 0) return;
    const int got = u8(field);
    if (got != want)
      fail(field, "expected " + std::to_string(want) + ", got " +
                      std::to_string(got));
  };
  expect(f.version, "format version");
  expect(f.kind, "artifact kind");
  if (!f.checksummed) return i;
  const uint64_t checksum = u64("payload checksum");
  const uint64_t bytes = u64("payload length");
  if (bytes > end_ - pos_)
    fail("payload length", "header claims " + std::to_string(bytes) +
                               " bytes, file has " +
                               std::to_string(end_ - pos_) + " left");
  if (fnv1a(data_.data() + pos_, bytes) != checksum)
    fail("payload checksum",
         "checksum mismatch (corrupt or truncated artifact)");
  end_ = pos_ + bytes;
  return i;
}

const char* ByteReader::take(size_t n, size_t elem, const char* field) {
  const size_t left = end_ - pos_;
  if (elem != 0 && n > left / elem)
    fail(field, "needs " + std::to_string(n) + " x " + std::to_string(elem) +
                    " bytes, " + std::to_string(left) + " left (truncated)");
  const char* p = data_.data() + pos_;
  pos_ += n * elem;
  return p;
}

uint8_t ByteReader::u8(const char* field) {
  return static_cast<uint8_t>(*take(1, 1, field));
}

uint64_t ByteReader::u64(const char* field) {
  uint64_t v;
  std::memcpy(&v, take(1, sizeof(v), field), sizeof(v));
  return v;
}

double ByteReader::f64(const char* field) {
  const uint64_t bits = u64(field);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

size_t ByteReader::count(const char* field, size_t min_bytes) {
  const uint64_t n = u64(field);
  if (min_bytes != 0 && n > (end_ - pos_) / min_bytes)
    fail(field, "claims " + std::to_string(n) + " entries, only " +
                    std::to_string(end_ - pos_) + " bytes left");
  return static_cast<size_t>(n);
}

Shape ByteReader::shape(const char* field) {
  const uint64_t rank = u64(field);
  if (rank > kMaxRank)
    fail(field, "rank " + std::to_string(rank) + " exceeds " +
                    std::to_string(kMaxRank));
  Shape s(rank);
  int64_t numel = 1;
  for (int64_t& d : s) {
    d = static_cast<int64_t>(u64(field));
    if (d < 0 || __builtin_mul_overflow(numel, d, &numel))
      fail(field, "implausible dim " + std::to_string(d));
  }
  return s;
}

void ByteReader::floats(float* dst, size_t n, const char* field) {
  const char* p = take(n, sizeof(float), field);
  if (n != 0) std::memcpy(dst, p, n * sizeof(float));
}

Tensor ByteReader::floats(Shape shape, const char* field) {
  const size_t n = static_cast<size_t>(shape_numel(shape));
  const char* p = take(n, sizeof(float), field);
  Tensor t = Tensor::uninit(std::move(shape));
  if (n != 0) std::memcpy(t.data(), p, n * sizeof(float));
  return t;
}

// ---- Model checkpoints (v0 / v1) ----

void save_checkpoint(Module& module, const std::string& path, int version) {
  if (version != 0 && version != 1)
    throw std::runtime_error("checkpoint: unknown format version " +
                             std::to_string(version));
  const std::vector<Tensor*> tensors = checkpoint_tensors(module);
  ByteWriter w(version == 0 ? kModelFrameV0 : kModelFrameV1);
  w.u64(tensors.size());
  for (const Tensor* t : tensors) w.tensor(*t);
  w.save(path);
}

void load_checkpoint(Module& module, const std::string& path) {
  const std::vector<Tensor*> tensors = checkpoint_tensors(module);
  ByteReader r(path);
  r.frame({kModelFrameV0, kModelFrameV1});
  const uint64_t count = r.u64("tensor count");
  if (count != tensors.size())
    r.fail("tensor count", "file " + std::to_string(count) + ", model " +
                               std::to_string(tensors.size()));
  // All or nothing: check every entry against the model before the first
  // write, so a mismatch leaves the model exactly as it was.
  std::vector<const char*> data;
  data.reserve(tensors.size());
  for (const Tensor* t : tensors) {
    const Shape shape = r.shape("tensor shape");
    if (shape != t->shape())
      r.fail("tensor shape", "file " + shape_str(shape) + " vs model " +
                                 shape_str(t->shape()));
    data.push_back(r.take(static_cast<size_t>(t->numel()), sizeof(float),
                          "tensor data"));
  }
  for (size_t i = 0; i < tensors.size(); ++i)
    if (tensors[i]->numel() != 0)
      std::memcpy(tensors[i]->data(), data[i],
                  static_cast<size_t>(tensors[i]->numel()) * sizeof(float));
}

}  // namespace pf::nn
