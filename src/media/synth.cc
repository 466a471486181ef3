#include "media/synth.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.hh"

namespace dnastore {

namespace {

/** Bilinearly interpolated random lattice ("value noise"). */
class ValueNoise
{
  public:
    ValueNoise(size_t cells_x, size_t cells_y, Rng &rng)
        : cellsX_(cells_x), cellsY_(cells_y),
          lattice_((cells_x + 1) * (cells_y + 1))
    {
        for (auto &v : lattice_)
            v = rng.nextDouble();
    }

    /** Sample at normalized coordinates u, v in [0, 1]. */
    double
    sample(double u, double v) const
    {
        double fx = u * double(cellsX_);
        double fy = v * double(cellsY_);
        size_t x0 = std::min(size_t(fx), cellsX_ - 1);
        size_t y0 = std::min(size_t(fy), cellsY_ - 1);
        double tx = fx - double(x0);
        double ty = fy - double(y0);
        // Smoothstep for photo-like softness.
        tx = tx * tx * (3.0 - 2.0 * tx);
        ty = ty * ty * (3.0 - 2.0 * ty);
        double v00 = latticeAt(x0, y0), v10 = latticeAt(x0 + 1, y0);
        double v01 = latticeAt(x0, y0 + 1);
        double v11 = latticeAt(x0 + 1, y0 + 1);
        double top = v00 * (1 - tx) + v10 * tx;
        double bot = v01 * (1 - tx) + v11 * tx;
        return top * (1 - ty) + bot * ty;
    }

  private:
    double
    latticeAt(size_t x, size_t y) const
    {
        return lattice_[y * (cellsX_ + 1) + x];
    }

    size_t cellsX_;
    size_t cellsY_;
    std::vector<double> lattice_;
};

struct Blob
{
    double cx, cy, rx, ry, brightness;
};

} // namespace

Image
generateSyntheticPhoto(size_t width, size_t height, uint64_t seed)
{
    Rng rng(seed);
    Image img(width, height);

    // Scene illumination: a tilted linear gradient.
    double gx = rng.nextDouble() * 60.0 - 30.0;
    double gy = rng.nextDouble() * 60.0 - 30.0;
    double base = 90.0 + rng.nextDouble() * 70.0;

    // Soft elliptical "objects".
    std::vector<Blob> blobs;
    size_t n_blobs = 3 + rng.nextBelow(5);
    for (size_t i = 0; i < n_blobs; ++i) {
        blobs.push_back({ rng.nextDouble(), rng.nextDouble(),
                          0.08 + rng.nextDouble() * 0.25,
                          0.08 + rng.nextDouble() * 0.25,
                          rng.nextDouble() * 120.0 - 60.0 });
    }

    // Two octaves of value noise plus fine grain.
    ValueNoise coarse(6, 6, rng);
    ValueNoise fine(24, 24, rng);

    for (size_t y = 0; y < height; ++y) {
        double v = height > 1 ? double(y) / double(height - 1) : 0.0;
        for (size_t x = 0; x < width; ++x) {
            double u = width > 1 ? double(x) / double(width - 1) : 0.0;
            double val = base + gx * (u - 0.5) + gy * (v - 0.5);
            for (const Blob &b : blobs) {
                double dx = (u - b.cx) / b.rx;
                double dy = (v - b.cy) / b.ry;
                double d2 = dx * dx + dy * dy;
                if (d2 < 4.0)
                    val += b.brightness * std::exp(-d2);
            }
            val += (coarse.sample(u, v) - 0.5) * 50.0;
            val += (fine.sample(u, v) - 0.5) * 14.0;
            val += rng.nextGaussian() * 1.5; // sensor grain
            img.at(x, y) = uint8_t(std::clamp(val, 0.0, 255.0));
        }
    }
    return img;
}

} // namespace dnastore
