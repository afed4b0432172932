// Example: the three content-delivery codecs side by side, standalone (no
// network) — the trade-off at the heart of the paper's §4.3.
//
//   1. Draco-class mesh codec on a generated persona scan
//   2. the block-DCT video codec on synthetic talking-head frames
//   3. the semantic keypoint codec (the approach FaceTime ships)
//
// Build & run:  ./build/examples/codec_playground
#include <iostream>

#include "core/table.h"
#include "mesh/codec.h"
#include "mesh/generator.h"
#include "semantic/codec.h"
#include "semantic/generator.h"
#include "semantic/reconstruct.h"
#include "video/codec.h"
#include "video/talking_head.h"

using namespace vtp;

int main() {
  core::TextTable table;
  table.SetHeader({"pipeline", "payload", "per frame", "at rate", "Mbps"});

  // --- 1. direct 3D: mesh codec --------------------------------------------
  {
    const mesh::TriangleMesh persona = mesh::GeneratePersona(1);
    const auto encoded = mesh::EncodeMesh(persona);
    const mesh::TriangleMesh decoded = mesh::DecodeMesh(encoded);
    std::cout << "mesh codec:     " << persona.triangle_count() << " triangles -> "
              << encoded.size() << " bytes ("
              << core::Fmt(static_cast<double>(encoded.size()) /
                               static_cast<double>(persona.triangle_count()),
                           2)
              << " B/tri), max position error "
              << core::Fmt(mesh::QuantizationError(persona) * 1000, 3) << " mm, "
              << "connectivity exact: "
              << (decoded.triangles == persona.triangles ? "yes" : "NO") << "\n";
    table.AddRow({"direct 3D streaming", "full persona mesh",
                  core::Fmt(static_cast<double>(encoded.size()) / 1024, 1) + " KiB",
                  "90 FPS", core::Fmt(encoded.size() * 8.0 * 90 / 1e6, 1)});
  }

  // --- 2. pre-rendered 2D: video codec --------------------------------------
  {
    video::TalkingHeadConfig config;
    config.resolution = video::kFaceTime2dResolution;
    video::TalkingHeadSource source(config, 2);
    video::VideoEncoder encoder(config.resolution);
    video::VideoDecoder decoder(config.resolution);
    std::size_t total = 0;
    double psnr = 0;
    const int frames = 30;
    for (int i = 0; i < frames; ++i) {
      const video::VideoFrame frame = source.Next();
      const video::EncodedFrame enc = encoder.Encode(frame, 30);
      total += enc.bytes.size();
      psnr += video::Psnr(frame, *decoder.Decode(enc.bytes)) / frames;
    }
    const double per_frame = static_cast<double>(total) / frames;
    std::cout << "video codec:    " << config.resolution.width << "x"
              << config.resolution.height << " @ QP30 -> " << core::Fmt(per_frame / 1024, 1)
              << " KiB/frame, " << core::Fmt(psnr, 1) << " dB PSNR\n";
    table.AddRow({"pre-rendered 2D video", "720p talking head",
                  core::Fmt(per_frame / 1024, 1) + " KiB", "30 FPS",
                  core::Fmt(per_frame * 8 * 30 / 1e6, 1)});
  }

  // --- 3. semantic: keypoints + reconstruction -------------------------------
  {
    semantic::KeypointTrackGenerator generator({}, 3);
    semantic::SemanticEncoder encoder;
    semantic::SemanticDecoder decoder;
    const mesh::TriangleMesh persona = mesh::GeneratePersona(1);
    semantic::PersonaReconstructor reconstructor(persona);
    std::size_t total = 0;
    const int frames = 90;
    for (int i = 0; i < frames; ++i) {
      const auto payload =
          encoder.EncodeFrame(semantic::ExtractSemanticSubset(generator.Next()));
      total += payload.size();
      const auto frame = decoder.DecodeFrame(payload);
      reconstructor.Apply(frame->points);  // deform the local persona
    }
    const double per_frame = static_cast<double>(total) / frames;
    std::cout << "semantic codec: 74 keypoints -> " << core::Fmt(per_frame, 0)
              << " B/frame, animating " << reconstructor.influenced_vertex_count()
              << " of " << persona.vertex_count() << " vertices locally\n\n";
    table.AddRow({"semantic communication", "74 keypoints (mouth/eyes/hands)",
                  core::Fmt(per_frame, 0) + " B", "90 FPS",
                  core::Fmt(per_frame * 8 * 90 / 1e6, 2)});
  }

  table.Print(std::cout);
  std::cout << "\nSame persona, three delivery strategies — a ~150x bandwidth spread.\n"
               "FaceTime ships the bottom row; the paper's §4.3 reverse-engineers why.\n";
  return 0;
}
