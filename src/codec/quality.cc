#include "codec/quality.h"

#include <string>
#include <utility>

#include "codec/transform.h"

namespace vc {

Result<QualityLadder> MakeQualityLadder(int count, int hi_qp, int lo_qp) {
  if (count <= 0 || count > 16) {
    return Status::InvalidArgument("ladder size must be in [1, 16]");
  }
  if (hi_qp < 0 || lo_qp > kMaxQp || hi_qp > lo_qp) {
    return Status::InvalidArgument("ladder QP range invalid");
  }
  QualityLadder ladder;
  for (int i = 0; i < count; ++i) {
    int qp = count == 1
                 ? hi_qp
                 : hi_qp + (lo_qp - hi_qp) * i / (count - 1);
    std::string name = "q";
    name += std::to_string(i);
    ladder.push_back({std::move(name), qp});
  }
  return ladder;
}

}  // namespace vc
