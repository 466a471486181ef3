/**
 * @file
 * Procedural generation of photo-like grayscale test images.
 *
 * The paper's workload is a set of 10 private photos of varying
 * resolution; as a substitution (see DESIGN.md) we generate synthetic
 * "photographs": smooth illumination gradients, soft elliptical
 * objects, and multi-octave value noise. What matters for the
 * evaluation is that the images compress like photos (energy
 * concentrated in low DCT frequencies, spatial correlation) so the
 * entropy-coded bitstream exhibits the same position-dependent
 * fragility.
 */

#ifndef DNASTORE_MEDIA_SYNTH_HH
#define DNASTORE_MEDIA_SYNTH_HH

#include <cstdint>

#include "media/image.hh"

namespace dnastore {

/**
 * Generate a deterministic photo-like image.
 *
 * @param width, height Image shape (any positive size).
 * @param seed          Distinct seeds give distinct scenes.
 */
Image generateSyntheticPhoto(size_t width, size_t height, uint64_t seed);

} // namespace dnastore

#endif // DNASTORE_MEDIA_SYNTH_HH
