// Draco-like triangle-mesh compression.
//
// The paper (§4.3) streams Sketchfab head meshes compressed with Google's
// Draco at 90 FPS to show that direct 3D delivery would need ~107 Mbps.
// This codec reproduces Draco's essential pipeline:
//
//   1. positions quantized to a uniform grid inside the mesh bounds
//      (default 14 bits per axis, Draco's common operating point);
//   2. per-vertex delta prediction, zigzag mapping, and adaptive
//      range coding of the residual magnitudes via bit-length "slots";
//   3. connectivity coded as per-index deltas with the same entropy stage.
//
// Quantization makes the codec lossy in position (bounded by the grid step)
// and lossless in connectivity, like Draco.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mesh/mesh.h"

namespace vtp::mesh {

/// Codec parameters.
struct MeshCodecConfig {
  int position_bits = 14;  ///< quantization bits per axis (1..21)
};

/// Compresses `mesh` into a self-contained buffer.
std::vector<std::uint8_t> EncodeMesh(const TriangleMesh& mesh, MeshCodecConfig config = {});

/// Compresses `mesh` into `out` (replaced), reusing its capacity — the
/// per-frame path for streaming encoders that keep a scratch buffer warm.
void EncodeMeshInto(const TriangleMesh& mesh, MeshCodecConfig config,
                    std::vector<std::uint8_t>& out);

/// Decompresses a buffer produced by EncodeMesh.
/// Throws compress::CorruptStream on malformed input.
TriangleMesh DecodeMesh(std::span<const std::uint8_t> data);

/// Worst-case position error of a round trip: half a grid step per axis.
float QuantizationError(const TriangleMesh& mesh, MeshCodecConfig config = {});

}  // namespace vtp::mesh
