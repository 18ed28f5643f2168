// Checkpointing: save/load all parameters and buffers of a module tree to a
// simple binary format. The format stores per-tensor shapes so mismatched
// architectures fail loudly instead of loading garbage -- the usual failure
// mode when checkpointing a vanilla model and loading it into a hybrid.
//
// Every artifact in the repo -- model checkpoints, TrainState snapshots
// (core/checkpoint.h) and PUFFCKP3 quantized/delta artifacts
// (quant/qcheckpoint.h) -- is framed by the one container below:
//
//   magic u64 | [version byte] | [kind byte] |
//   payload checksum u64 (FNV-1a) | payload bytes u64 | payload
//
// (the legacy v0 model frame is the magic alone, unchecksummed). Each
// format is a payload encoder over ByteWriter and a decoder over
// ByteReader. The model checkpoint has two on-disk versions:
//   v0 ("PUFFCKP1"): magic | count | tensors          (legacy, still read)
//   v1 ("PUFFCKP2"): magic | version byte (1) | checksum | payload bytes |
//                    payload(count | tensors)
// where a tensor is rank | dims | float data. v1 is what save_checkpoint
// writes by default; the checksum makes truncated or bit-flipped artifacts
// fail loudly at load time instead of silently serving garbage weights.
//
// Hostile input: ByteReader reads the file once and checks every length,
// count, rank and dim against the bytes that remain before anything is
// allocated, so a crafted header can neither allocate more than the file's
// size nor escape as std::bad_alloc / std::length_error. Every load failure
// is a CheckpointError naming the file and the field.
//
// Crash safety: every write goes to `<path>.tmp` first and is renamed over
// the target only once complete (atomic on POSIX), so a crash -- real or
// injected via fault::ScopedWriteCrash -- mid-write never destroys the
// previous good file at `path`.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/module.h"

namespace pf::nn {

// On-disk magics (exposed so tests can craft version-0 files).
inline constexpr uint64_t kCheckpointMagicV0 = 0x50554646434B5031ull;
inline constexpr uint64_t kCheckpointMagicV1 = 0x50554646434B5032ull;
inline constexpr uint8_t kCheckpointVersion = 1;

// Highest tensor rank a loader accepts.
inline constexpr uint64_t kMaxRank = 8;

// Writes every parameter and buffer (depth-first order) to `path`.
// `version` selects the on-disk format (1 = checksummed, 0 = legacy).
// Throws std::runtime_error on I/O failure or unknown version.
void save_checkpoint(Module& module, const std::string& path,
                     int version = kCheckpointVersion);

// Loads a checkpoint written by save_checkpoint (either version) into a
// structurally identical module tree. Throws CheckpointError on I/O
// failure, magic / version / checksum / shape / count mismatch.
void load_checkpoint(Module& module, const std::string& path);

// Every parameter and buffer tensor of the tree, depth-first, params before
// buffers per module: the order checkpoints store them in.
std::vector<Tensor*> checkpoint_tensors(Module& module);

// FNV-1a over payload bytes: cheap, dependency-free, and sensitive to both
// bit flips and truncation.
uint64_t fnv1a(const char* p, size_t n);

// The crash-safe write protocol itself: `fill` writes the complete contents
// to a stream opened on `<path>.tmp`; on success the temp file is renamed
// over `path`. On any failure the temp file is removed and `path` is left
// untouched.
void atomic_write(const std::string& path,
                  const std::function<void(std::ofstream&)>& fill);

// ---- The container ----

// Any malformed, truncated, corrupt or mismatched artifact. what() reads
// "checkpoint <path>: <field>: <reason>".
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// The header in front of a payload. A negative version/kind means the
// format has no such byte; `checksummed` = false is the legacy v0 frame
// (magic only, no checksum or length).
struct Frame {
  uint64_t magic = 0;
  int version = -1;
  int kind = -1;
  bool checksummed = true;
};

// Builds a whole file in memory, then writes it crash-safely.
class ByteWriter {
 public:
  // Starts the file with `frame`'s header; save() fills in the checksum and
  // length of everything written after it.
  explicit ByteWriter(const Frame& frame);

  void u8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u64(uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v);
  void bytes(const void* p, size_t n);
  void shape(const Shape& s);    // rank | dims
  void tensor(const Tensor& t);  // shape | float data

  // atomic_write of the finished file; its bytes pass fault::on_write_bytes
  // so injected crashes tear checkpoint writes like any other.
  void save(const std::string& path);

 private:
  std::vector<char> buf_;
  size_t payload_ = 0;  // offset of the payload (after checksum | length)
  bool checksummed_;
};

// Bounded reads over the bytes of one file.
class ByteReader {
 public:
  // Reads all of `path`; its size comes from the file itself.
  explicit ByteReader(std::string path);

  // Matches the file's magic against `frames`, checks the version / kind
  // bytes, verifies the checksum and confines later reads to the payload.
  // Returns the index of the matching frame.
  size_t frame(std::initializer_list<Frame> frames);

  uint8_t u8(const char* field);
  uint64_t u64(const char* field);
  double f64(const char* field);
  // An element count, each element taking at least `min_bytes` of what is
  // left -- so a count can be trusted for reserve().
  size_t count(const char* field, size_t min_bytes);
  // rank <= kMaxRank, dims >= 0, numel without int64 overflow.
  Shape shape(const char* field);
  // The next n * elem bytes, checked before anyone allocates for them.
  const char* take(size_t n, size_t elem, const char* field);
  void floats(float* dst, size_t n, const char* field);
  Tensor floats(Shape shape, const char* field);  // allocates after checking
  Tensor tensor(const char* field) { return floats(shape(field), field); }

  [[noreturn]] void fail(const std::string& field,
                         const std::string& why) const;

 private:
  std::string path_;
  std::vector<char> data_;
  size_t pos_ = 0, end_ = 0;
};

}  // namespace pf::nn
