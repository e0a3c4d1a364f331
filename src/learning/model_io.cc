#include "learning/model_io.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>

#include "util/binary_io.h"
#include "util/macros.h"
#include "util/mmap_file.h"

namespace metaprox {
namespace {

constexpr char kMagic[] = "metaprox-model v1";

// Section ids of a kModelArtifact container.
constexpr uint32_t kSecModelMeta = 1;     // weight count
constexpr uint32_t kSecModelWeights = 2;  // raw LE binary64, aligned

// %.17g round-trips an IEEE binary64 exactly through strtod — the same
// rule server::FormatScore follows, restated here so learning/ does not
// depend on server/.
std::string FormatWeight(double w) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", w);
  return buf;
}

}  // namespace

util::Status WriteMgpModel(const MgpModel& model, std::ostream& os) {
  os << kMagic << '\n' << model.weights.size() << '\n';
  for (double w : model.weights) os << FormatWeight(w) << '\n';
  if (!os.good()) return util::Status::IoError("model write failed");
  return util::Status::Ok();
}

util::StatusOr<MgpModel> ReadMgpModel(std::istream& is,
                                      size_t expected_weights) {
  std::string magic;
  std::getline(is, magic);
  if (magic != kMagic) {
    return util::Status::InvalidArgument("missing " + std::string(kMagic) +
                                         " header");
  }
  // Strict digits-only count parse: `is >> size_t` would accept a signed
  // token by wrapping it, and a hostile count must fail here, not at an
  // allocation.
  std::string count_token;
  is >> count_token;
  uint64_t count = 0;
  if (count_token.empty() || count_token.size() > 20) {
    return util::Status::InvalidArgument("bad model weight count");
  }
  for (char c : count_token) {
    if (c < '0' || c > '9') {
      return util::Status::InvalidArgument("bad model weight count");
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (count > (UINT64_MAX - digit) / 10) {
      return util::Status::InvalidArgument("bad model weight count");
    }
    count = count * 10 + digit;
  }
  if (expected_weights != 0 && count != expected_weights) {
    return util::Status::InvalidArgument(
        "model has " + std::to_string(count) + " weights but the index has " +
        std::to_string(expected_weights) +
        " metagraphs (trained on a different offline phase?)");
  }
  MgpModel model;
  // Don't trust a large count with memory before a single weight parsed:
  // an absurd-but-well-formed count fails at the first missing weight
  // below instead of attempting a giant allocation here.
  model.weights.reserve(
      static_cast<size_t>(std::min<uint64_t>(count, 1 << 20)));
  for (uint64_t i = 0; i < count; ++i) {
    double w = 0.0;
    is >> w;
    if (!is) {
      return util::Status::InvalidArgument("bad model weight at index " +
                                           std::to_string(i));
    }
    model.weights.push_back(w);
  }
  // Trailing garbage means the artifact is not what this reader thinks it
  // is; loading a prefix of it silently would serve wrong scores.
  std::string rest;
  is >> rest;
  if (!rest.empty()) {
    return util::Status::InvalidArgument("trailing data after " +
                                         std::to_string(count) + " weights");
  }
  return model;
}

util::Status WriteMgpModelBinary(const MgpModel& model, std::ostream& os) {
  util::ContainerWriter writer(util::kModelArtifact);
  std::string meta;
  util::AppendScalar<uint64_t>(&meta, model.weights.size());
  writer.AddSection(kSecModelMeta, std::move(meta));
  // Raw binary64 bits, uncompressed: trained weights have near-random
  // mantissas LZW cannot shrink, and leaving them raw keeps the section
  // aligned for direct in-place reads.
  std::string weights;
  weights.resize(model.weights.size() * sizeof(double));
  if (!model.weights.empty()) {
    std::memcpy(weights.data(), model.weights.data(), weights.size());
  }
  writer.AddSection(kSecModelWeights, std::move(weights));
  return writer.WriteTo(os);
}

util::StatusOr<MgpModel> ReadMgpModelBinary(std::span<const uint8_t> bytes,
                                            size_t expected_weights) {
  auto reader = util::ContainerReader::Parse(bytes, util::kModelArtifact);
  if (!reader.ok()) return reader.status();
  auto meta = reader->Section(kSecModelMeta);
  if (!meta.ok()) return meta.status();
  if (meta->bytes.size() != sizeof(uint64_t)) {
    return util::Status::InvalidArgument("model meta section malformed");
  }
  size_t pos = 0;
  uint64_t count = 0;
  util::ReadScalar(meta->bytes, &pos, &count);
  if (expected_weights != 0 && count != expected_weights) {
    return util::Status::InvalidArgument(
        "model has " + std::to_string(count) + " weights but the index has " +
        std::to_string(expected_weights) +
        " metagraphs (trained on a different offline phase?)");
  }
  auto weights = reader->Section(kSecModelWeights);
  if (!weights.ok()) return weights.status();
  // The size cross-check also bounds the allocation below: a corrupt
  // count cannot exceed the (already size-validated) section itself.
  if (weights->bytes.size() != count * sizeof(double)) {
    return util::Status::InvalidArgument(
        "model weights section disagrees with weight count");
  }
  MgpModel model;
  model.weights.resize(static_cast<size_t>(count));
  if (count > 0) {
    std::memcpy(model.weights.data(), weights->bytes.data(),
                weights->bytes.size());
  }
  return model;
}

util::Status SaveModel(const MgpModel& model, const std::string& path,
                       util::ArtifactFormat format) {
  // Write-then-rename so a concurrent LoadModel — e.g. a server admin
  // RELOAD racing a trainer's refresh of the same artifact — never reads
  // a half-written file (same pattern as the server's port file).
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) return util::Status::IoError("cannot write model to " + tmp);
    MX_RETURN_IF_ERROR(format == util::ArtifactFormat::kBinary
                           ? WriteMgpModelBinary(model, out)
                           : WriteMgpModel(model, out));
    out.close();
    if (!out) return util::Status::IoError("cannot finish writing " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return util::Status::IoError("cannot move model into place at " + path);
  }
  return util::Status::Ok();
}

util::StatusOr<MgpModel> LoadModel(const std::string& path,
                                   size_t expected_weights) {
  auto is_container = util::PathIsContainer(path);
  if (!is_container.ok()) {
    return util::Status::NotFound("cannot open model file " + path);
  }
  auto annotate =
      [&](util::StatusOr<MgpModel> model) -> util::StatusOr<MgpModel> {
    if (!model.ok()) {
      return util::Status(model.status().code(),
                          path + ": " + model.status().message());
    }
    return model;
  };
  if (*is_container) {
    auto file = util::MmapFile::OpenReadOnly(path);
    if (!file.ok()) return file.status();
    return annotate(ReadMgpModelBinary((*file)->bytes(), expected_weights));
  }
  std::ifstream in(path);
  if (!in) return util::Status::NotFound("cannot open model file " + path);
  return annotate(ReadMgpModel(in, expected_weights));
}

}  // namespace metaprox
