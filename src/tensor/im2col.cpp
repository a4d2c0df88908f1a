#include "tensor/im2col.hpp"

#include <algorithm>
#include <cassert>

#include "util/thread_pool.hpp"

namespace bprom::tensor {
namespace {

// Minimum total element count before the batch loop is worth sharding over
// the pool; per-sample blocks are contiguous and disjoint, so the parallel
// result is bit-identical to the serial one.
constexpr std::size_t kParallelElems = std::size_t{1} << 20;

}  // namespace

Tensor im2col(const Tensor& input, const ConvGeometry& g) {
  Tensor cols;
  im2col_into(input, g, cols);
  return cols;
}

void im2col_into(const Tensor& input, const ConvGeometry& g, Tensor& cols) {
  assert(input.rank() == 4);
  const std::size_t n = input.dim(0);
  assert(input.dim(1) == g.in_c && input.dim(2) == g.in_h &&
         input.dim(3) == g.in_w);
  const std::size_t ow = g.out_w();
  const std::size_t hw = g.out_h() * ow;
  const std::size_t patch = g.patch_size();
  // Shapes the caller's column tensor — callers reuse one tensor across
  // batches, so in steady state this resize is a no-op.
  // bprom-lint: allow(hot-path-alloc)
  cols.resize({n * patch, hw});
  // One row per kernel tap: the row is zero-filled, then each output row of
  // the tap's in-image rectangle (computed once per tap) is one copy of an
  // input row segment, contiguous at stride 1 and strided otherwise.
  const auto fill_sample = [&](std::size_t b) {
    float* row = cols.data() + b * patch * hw;
    for (std::size_t c = 0; c < g.in_c; ++c) {
      const float* image = input.data() + (b * g.in_c + c) * g.in_h * g.in_w;
      for (std::size_t ky = 0; ky < g.kernel; ++ky) {
        const OutputSpan ys = g.rows_for_tap(ky);
        for (std::size_t kx = 0; kx < g.kernel; ++kx, row += hw) {
          std::fill(row, row + hw, 0.0F);
          const OutputSpan xs = g.cols_for_tap(kx);
          if (xs.lo == xs.hi) continue;
          // `at` indexes the first in-image pixel output row oy reads.
          std::size_t at = (ys.lo * g.stride + ky - g.pad) * g.in_w +
                           xs.lo * g.stride + kx - g.pad;
          for (std::size_t oy = ys.lo; oy < ys.hi; ++oy) {
            float* out = row + oy * ow;
            for (std::size_t ox = xs.lo; ox < xs.hi; ++ox) {
              out[ox] = image[at + (ox - xs.lo) * g.stride];
            }
            at += g.stride * g.in_w;
          }
        }
      }
    }
  };
  if (n > 1 && n * patch * hw >= kParallelElems) {
    util::parallel_for(n, fill_sample);
  } else {
    for (std::size_t b = 0; b < n; ++b) fill_sample(b);
  }
}

Tensor col2im(const Tensor& cols, const ConvGeometry& g, std::size_t batch) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t hw = oh * ow;
  const std::size_t patch = g.patch_size();
  assert(cols.dim(0) == batch * patch && cols.dim(1) == hw);
  Tensor img({batch, g.in_c, g.in_h, g.in_w});
  // The walk is output position (y, x) outermost, then tap (c, ky, kx), so
  // every pixel receives its scatter-adds in ascending (y, x) order.
  const auto scatter_sample = [&](std::size_t b) {
    const float* in = cols.data() + b * patch * hw;
    float* out = img.data() + b * g.in_c * g.in_h * g.in_w;
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t x = 0; x < ow; ++x) {
        std::size_t at = y * ow + x;  // tap (c, ky, kx) of output (y, x)
        for (std::size_t c = 0; c < g.in_c; ++c) {
          for (std::size_t ky = 0; ky < g.kernel; ++ky) {
            const long iy =
                static_cast<long>(y * g.stride + ky) - static_cast<long>(g.pad);
            for (std::size_t kx = 0; kx < g.kernel; ++kx, at += hw) {
              const long ix = static_cast<long>(x * g.stride + kx) -
                              static_cast<long>(g.pad);
              if (iy >= 0 && iy < static_cast<long>(g.in_h) && ix >= 0 &&
                  ix < static_cast<long>(g.in_w)) {
                out[(c * g.in_h + static_cast<std::size_t>(iy)) * g.in_w +
                    static_cast<std::size_t>(ix)] += in[at];
              }
            }
          }
        }
      }
    }
  };
  if (batch > 1 && batch * patch * hw >= kParallelElems) {
    util::parallel_for(batch, scatter_sample);
  } else {
    for (std::size_t b = 0; b < batch; ++b) scatter_sample(b);
  }
  return img;
}

}  // namespace bprom::tensor
