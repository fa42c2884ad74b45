#include "nn/serialize.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

namespace triad::nn {
namespace {

constexpr char kMagic[4] = {'T', 'R', 'T', 'N'};
constexpr uint32_t kVersion = 1;
// Largest tensor a stream may declare (4 GiB of floats).
constexpr int64_t kMaxTensorElements = int64_t{1} << 30;
// Floats read per piece of a tensor body.
constexpr int64_t kReadChunkElements = int64_t{1} << 16;

template <typename T>
void WritePod(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

}  // namespace

Status WriteTensors(std::ostream& out, const std::vector<Tensor>& tensors) {
  out.write(kMagic, sizeof(kMagic));
  WritePod(out, kVersion);
  WritePod(out, static_cast<uint64_t>(tensors.size()));
  for (const Tensor& t : tensors) {
    WritePod(out, static_cast<uint32_t>(t.ndim()));
    for (int i = 0; i < t.ndim(); ++i) WritePod(out, t.dim(i));
    out.write(reinterpret_cast<const char*>(t.data()),
              static_cast<std::streamsize>(t.size() * sizeof(float)));
  }
  if (!out) return Status::IoError("tensor stream write failed");
  return Status::OK();
}

Result<std::vector<Tensor>> ReadTensors(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a TriAD tensor stream (bad magic)");
  }
  uint32_t version = 0;
  uint64_t count = 0;
  if (!ReadPod(in, &version) || version != kVersion) {
    return Status::InvalidArgument("unsupported tensor stream version");
  }
  if (!ReadPod(in, &count) || count > (1u << 20)) {
    return Status::InvalidArgument("implausible tensor count");
  }
  std::vector<Tensor> tensors;
  // The count is untrusted: reserve only what a plausible model needs, and
  // let a stream that really holds more grow the vector as it is read.
  tensors.reserve(std::min<uint64_t>(count, 256));
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t ndim = 0;
    if (!ReadPod(in, &ndim) || ndim > 8) {
      return Status::InvalidArgument("corrupt tensor header");
    }
    std::vector<int64_t> shape(ndim);
    int64_t size = 1;
    for (auto& d : shape) {
      if (!ReadPod(in, &d) || d < 0) {
        return Status::InvalidArgument("corrupt tensor shape");
      }
      // Bounded before multiplying, so the product can neither overflow
      // nor pass the cap.
      if (d != 0 && size > kMaxTensorElements / d) {
        return Status::InvalidArgument("implausible tensor size");
      }
      size *= d;
    }
    // Read the body in bounded pieces, growing the buffer only as bytes
    // arrive: a short stream behind a huge declared size fails having
    // allocated about what it held, not the declared size.
    std::vector<float> data;
    for (int64_t done = 0; done < size;) {
      const int64_t take = std::min(kReadChunkElements, size - done);
      data.resize(static_cast<size_t>(done + take));
      in.read(reinterpret_cast<char*>(data.data() + done),
              static_cast<std::streamsize>(take * sizeof(float)));
      if (!in) return Status::IoError("tensor stream truncated");
      done += take;
    }
    tensors.emplace_back(std::move(shape), std::move(data));
  }
  return tensors;
}

Status SaveTensors(const std::string& path,
                   const std::vector<Tensor>& tensors) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  return WriteTensors(out, tensors);
}

Result<std::vector<Tensor>> LoadTensors(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  return ReadTensors(in);
}

Status AssignParameters(const std::vector<Tensor>& values,
                        const std::vector<Var>& params) {
  if (values.size() != params.size()) {
    std::ostringstream os;
    os << "parameter count mismatch: stream has " << values.size()
       << ", model has " << params.size();
    return Status::InvalidArgument(os.str());
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (!values[i].SameShape(params[i].value())) {
      std::ostringstream os;
      os << "parameter " << i << " shape mismatch: stream "
         << values[i].ShapeString() << " vs model "
         << params[i].value().ShapeString();
      return Status::InvalidArgument(os.str());
    }
  }
  for (size_t i = 0; i < values.size(); ++i) {
    Var param = params[i];
    param.mutable_value() = values[i];
  }
  return Status::OK();
}

}  // namespace triad::nn
