#include "tensor/lanes.hpp"

#include <cassert>
#include <stdexcept>

namespace bprom::tensor {

Lanes::Lanes(std::vector<std::size_t> shape, std::size_t rows)
    : shape_(std::move(shape)),
      rows_(rows),
      data_(shape_size(shape_) * kLanes, 0.0F) {
  if (rows_ == 0 || rows_ > kLanes) {
    throw std::invalid_argument("Lanes: a chunk holds 1 to 16 rows");
  }
}

Lanes Lanes::pack(const Tensor& batch, std::size_t lo, std::size_t hi) {
  if (batch.rank() < 2 || lo >= hi || hi > batch.dim(0) || hi - lo > kLanes) {
    throw std::invalid_argument("Lanes::pack: bad row range or batch rank");
  }
  Lanes out(std::vector<std::size_t>(batch.shape().begin() + 1,
                                     batch.shape().end()),
            hi - lo);
  // Both transposes walk their destination contiguously: strided stores
  // cost more than strided loads.
  const std::size_t f = out.features();
  const float* src = batch.data() + lo * f;
  float* dst = out.data();
  for (std::size_t i = 0; i < f; ++i) {
    for (std::size_t r = 0; r < out.rows_; ++r) {
      dst[i * kLanes + r] = src[r * f + i];
    }
  }
  return out;
}

void Lanes::unpack(float* rows_out) const {
  const std::size_t f = features();
  const float* src = data_.data();
  for (std::size_t r = 0; r < rows_; ++r) {
    float* row = rows_out + r * f;
    for (std::size_t i = 0; i < f; ++i) row[i] = src[i * kLanes + r];
  }
}

Tensor Lanes::unpack() const {
  std::vector<std::size_t> shape{rows_};
  shape.insert(shape.end(), shape_.begin(), shape_.end());
  Tensor out(std::move(shape));
  unpack(out.data());
  return out;
}

void Lanes::reshape(std::vector<std::size_t> shape) {
  assert(shape_size(shape) == features());
  shape_ = std::move(shape);
}

void Lanes::clear_unused() {
  if (rows_ == kLanes) return;
  // A whole-vector select per feature, not a short fill per feature.
  float* p = data_.data();
  const std::size_t used = rows_;
  for (std::size_t i = 0; i < data_.size(); i += kLanes) {
    for (std::size_t r = 0; r < kLanes; ++r) {
      p[i + r] = r < used ? p[i + r] : 0.0F;
    }
  }
}

Lanes& Lanes::add(const Lanes& rhs) {
  assert(rhs.shape_ == shape_ && rhs.rows_ == rows_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

}  // namespace bprom::tensor
