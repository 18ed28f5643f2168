#include "quant/qcheckpoint.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <vector>

#include "nn/serialize.h"

namespace pf::quant {

namespace {

// Entry kind bytes (see qcheckpoint.h header comment).
constexpr uint8_t kEntryFp32 = 0;
constexpr uint8_t kEntryInt8 = 1;
constexpr uint8_t kEntryBf16 = 2;
constexpr uint8_t kEntryDeltaLowRank = 3;

nn::Frame artifact_frame(uint8_t kind) {
  return {kQCheckpointMagic, kQCheckpointVersion, kind};
}

}  // namespace

void save_quantized(nn::Module& m, const std::string& path) {
  std::vector<detail::Entry> es = detail::collect_entries(m);
  nn::ByteWriter w(artifact_frame(kArtifactQuantized));
  w.u64(es.size());
  for (const detail::Entry& e : es) {
    const kernels::QuantizedMat* q =
        (e.slot && *e.slot) ? e.slot->get() : nullptr;
    if (!q) {
      if (e.tensor->empty())
        throw std::runtime_error(
            "save_quantized: fp32 master released without a quantized slot");
      w.u8(kEntryFp32);
      w.tensor(*e.tensor);
      continue;
    }
    const bool int8 = q->mode == kernels::QMode::kInt8;
    w.u8(int8 ? kEntryInt8 : kEntryBf16);
    // The fp32 shape travels too so a mismatched architecture fails loudly
    // even when the master is already released.
    w.shape(e.tensor->empty() ? (e.transpose ? Shape{e.qcols, e.qrows}
                                             : Shape{e.qrows, e.qcols})
                              : e.tensor->shape());
    w.u64(static_cast<uint64_t>(q->rows));
    w.u64(static_cast<uint64_t>(q->cols));
    if (int8) {
      w.bytes(q->scales.data(), q->scales.size() * sizeof(float));
      w.bytes(q->q.data(), q->q.size());
    } else {
      w.bytes(q->b16.data(), q->b16.size() * sizeof(uint16_t));
    }
  }
  w.save(path);
}

void load_quantized(nn::Module& m, const std::string& path) {
  nn::ByteReader r(path);
  r.frame({artifact_frame(kArtifactQuantized)});
  std::vector<detail::Entry> es = detail::collect_entries(m);
  const uint64_t count = r.u64("tensor count");
  if (count != es.size())
    r.fail("tensor count", "file " + std::to_string(count) + ", model " +
                               std::to_string(es.size()));
  // All or nothing: every entry is checked (and quantized ones decoded)
  // before the first write to the module, so a mismatch leaves it exactly
  // as it was. Per entry: its fp32 data in the file, or its decoded slot.
  std::vector<const char*> fp32(es.size(), nullptr);
  std::vector<std::shared_ptr<const kernels::QuantizedMat>> slots(es.size());
  for (size_t i = 0; i < es.size(); ++i) {
    const detail::Entry& e = es[i];
    const uint8_t kind = r.u8("entry kind");
    const Shape shape = r.shape("tensor shape");
    // A module saved AFTER commit no longer knows the fp32 shape and writes
    // the canonical 2-D storage shape instead; accept either spelling.
    const Shape storage = e.transpose ? Shape{e.qcols, e.qrows}
                                      : Shape{e.qrows, e.qcols};
    const bool quantized = kind == kEntryInt8 || kind == kEntryBf16;
    if (!quantized && kind != kEntryFp32)
      r.fail("entry kind", "unknown kind " + std::to_string(kind));
    if (quantized && !e.slot)
      r.fail("entry kind",
             "quantized entry for a non-quantizable tensor (architecture "
             "mismatch)");
    if (shape != e.tensor->shape() && !(quantized && shape == storage))
      r.fail("tensor shape", "file " + shape_str(shape) + " vs model " +
                                 shape_str(e.tensor->shape()));
    if (!quantized) {
      fp32[i] = r.take(static_cast<size_t>(e.tensor->numel()), sizeof(float),
                       "tensor data");
      continue;
    }
    kernels::QuantizedMat q;
    q.mode = kind == kEntryInt8 ? kernels::QMode::kInt8
                                : kernels::QMode::kBf16;
    q.rows = static_cast<int64_t>(r.u64("quantized rows"));
    q.cols = static_cast<int64_t>(r.u64("quantized cols"));
    if (q.rows != e.qrows || q.cols != e.qcols)
      r.fail("quantized shape", "file " + shape_str({q.rows, q.cols}) +
                                    " vs model " +
                                    shape_str({e.qrows, e.qcols}));
    const size_t n = static_cast<size_t>(q.rows) * static_cast<size_t>(q.cols);
    if (q.mode == kernels::QMode::kInt8) {
      q.scales.resize(static_cast<size_t>(q.rows));
      r.floats(q.scales.data(), q.scales.size(), "int8 scales");
      const char* codes = r.take(n, 1, "int8 codes");
      q.q.assign(codes, codes + n);
    } else {
      const char* codes = r.take(n, sizeof(uint16_t), "bf16 codes");
      q.b16.resize(n);
      std::memcpy(q.b16.data(), codes, n * sizeof(uint16_t));
    }
    slots[i] = std::make_shared<const kernels::QuantizedMat>(std::move(q));
  }
  for (size_t i = 0; i < es.size(); ++i) {
    detail::Entry& e = es[i];
    if (!slots[i]) {
      if (e.tensor->numel() != 0)
        std::memcpy(e.tensor->data(), fp32[i],
                    static_cast<size_t>(e.tensor->numel()) * sizeof(float));
      continue;
    }
    *e.slot = std::move(slots[i]);
    // Same state as quant::commit: the slot serves, the master is gone.
    e.param->var->value = Tensor();
    e.param->var->requires_grad = false;
  }
}

void save_delta(const DeltaModel& d, const std::string& path) {
  nn::ByteWriter w(artifact_frame(kArtifactDelta));
  w.u64(d.entries.size());
  for (const DeltaEntry& e : d.entries) {
    w.u8(e.lowrank ? kEntryDeltaLowRank : kEntryFp32);
    w.shape(e.shape);
    if (e.lowrank) {
      w.u64(static_cast<uint64_t>(e.u.size(1)));
      w.bytes(e.u.data(), static_cast<size_t>(e.u.numel()) * sizeof(float));
      w.bytes(e.v.data(), static_cast<size_t>(e.v.numel()) * sizeof(float));
    } else {
      w.bytes(e.dense.data(),
              static_cast<size_t>(e.dense.numel()) * sizeof(float));
    }
  }
  w.save(path);
}

DeltaModel load_delta(const std::string& path) {
  nn::ByteReader r(path);
  r.frame({artifact_frame(kArtifactDelta)});
  DeltaModel d;
  // Each entry takes at least its kind byte and rank word. No reserve():
  // entries are kept only once read.
  for (size_t n = r.count("delta entries", 1 + sizeof(uint64_t)); n > 0;
       --n) {
    DeltaEntry e;
    const uint8_t kind = r.u8("entry kind");
    e.shape = r.shape("delta shape");
    if (kind == kEntryDeltaLowRank) {
      e.lowrank = true;
      const int64_t rows = e.shape.empty() ? 1 : e.shape[0];
      const int64_t cols = rows > 0 ? shape_numel(e.shape) / rows : 0;
      const int64_t rank = static_cast<int64_t>(r.u64("delta rank"));
      if (rank < 1 || rank > std::min(rows, cols))
        r.fail("delta rank", "implausible rank " + std::to_string(rank));
      e.u = r.floats(Shape{rows, rank}, "delta u");
      e.v = r.floats(Shape{cols, rank}, "delta v");
    } else if (kind == kEntryFp32) {
      e.dense = r.floats(e.shape, "delta dense");
    } else {
      r.fail("entry kind", "unknown delta kind " + std::to_string(kind));
    }
    d.entries.push_back(std::move(e));
  }
  return d;
}

int64_t file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) throw std::runtime_error("qcheckpoint: cannot open " + path);
  return static_cast<int64_t>(is.tellg());
}

}  // namespace pf::quant
