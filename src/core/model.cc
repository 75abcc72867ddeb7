#include "core/model.h"

#include <limits>

#include "common/check.h"

namespace triad::core {

using nn::Var;

namespace {

// The enabled domains in encoder order, which is Parameters() order.
std::vector<Domain> DomainsOf(const TriadConfig& config) {
  std::vector<Domain> out;
  if (config.use_temporal) out.push_back(Domain::kTemporal);
  if (config.use_frequency) out.push_back(Domain::kFrequency);
  if (config.use_residual) out.push_back(Domain::kResidual);
  return out;
}

}  // namespace

DomainEncoder::DomainEncoder(int64_t in_channels, const TriadConfig& config,
                             Rng* rng) {
  TRIAD_CHECK_GE(config.depth, 1);
  int64_t dilation = 1;
  int64_t channels = in_channels;
  for (int64_t b = 0; b < config.depth; ++b) {
    blocks_.push_back(std::make_unique<nn::DilatedResidualBlock>(
        channels, config.hidden_dim, config.kernel_size, dilation, rng));
    channels = config.hidden_dim;
    dilation *= 2;
  }
}

Var DomainEncoder::Forward(const Var& x) const {
  Var h = x;
  for (const auto& block : blocks_) h = block->Forward(h);
  return h;
}

std::vector<Var> DomainEncoder::Parameters() const {
  std::vector<Var> out;
  for (const auto& block : blocks_) {
    for (const auto& p : block->Parameters()) out.push_back(p);
  }
  return out;
}

TriadModel::TriadModel(const TriadConfig& config, Rng* rng) : config_(config) {
  TRIAD_CHECK_GE(config.EnabledDomains(), 1);
  if (config.use_temporal) {
    temporal_ = std::make_unique<DomainEncoder>(
        DomainChannels(Domain::kTemporal), config, rng);
  }
  if (config.use_frequency) {
    frequency_ = std::make_unique<DomainEncoder>(
        DomainChannels(Domain::kFrequency), config, rng);
  }
  if (config.use_residual) {
    residual_ = std::make_unique<DomainEncoder>(
        DomainChannels(Domain::kResidual), config, rng);
  }
  head1_ = std::make_unique<nn::Linear>(config.hidden_dim, config.hidden_dim,
                                        rng);
  head2_ = std::make_unique<nn::Linear>(config.hidden_dim, 1, rng);
}

Var TriadModel::Encode(Domain domain, const Var& x) const {
  const DomainEncoder* encoder = nullptr;
  switch (domain) {
    case Domain::kTemporal:
      encoder = temporal_.get();
      break;
    case Domain::kFrequency:
      encoder = frequency_.get();
      break;
    case Domain::kResidual:
      encoder = residual_.get();
      break;
  }
  TRIAD_CHECK_MSG(encoder != nullptr,
                  "domain " << DomainToString(domain) << " is disabled");
  const int64_t B = x.shape()[0];
  const int64_t L = x.shape()[2];
  Var h = encoder->Forward(x);                      // [B, h_d, L]
  h = nn::TransposeLast2(h);                        // [B, L, h_d]
  h = head1_->ForwardRelu(h);                       // [B, L, h_d]
  h = head2_->Forward(h);                           // [B, L, 1]
  return nn::Reshape(h, {B, L});                    // r in R^L per window
}

Var TriadModel::EncodeNormalized(Domain domain, const Var& x) const {
  return nn::L2NormalizeLastDim(Encode(domain, x));
}

std::vector<Var> TriadModel::Parameters() const {
  std::vector<Var> out;
  for (const DomainEncoder* enc :
       {temporal_.get(), frequency_.get(), residual_.get()}) {
    if (enc == nullptr) continue;
    for (const auto& p : enc->Parameters()) out.push_back(p);
  }
  for (const auto& p : head1_->Parameters()) out.push_back(p);
  for (const auto& p : head2_->Parameters()) out.push_back(p);
  return out;
}

std::vector<Domain> TriadModel::EnabledDomains() const {
  return DomainsOf(config_);
}

int64_t TriadModel::ParameterTensorCount(const TriadConfig& config) {
  // Each block holds two convs of a weight and a bias each, plus a
  // projection's two when its input width differs from hidden_dim; the
  // shared heads hold four. At most 3 * (4 * depth + 2) + 4 below the cap.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  if (config.depth > kMax / 16) return kMax;
  int64_t count = 4;
  for (Domain d : DomainsOf(config)) {
    count += 4 * config.depth +
             (DomainChannels(d) != config.hidden_dim ? 2 : 0);
  }
  return count;
}

std::vector<std::vector<int64_t>> TriadModel::ParameterShapes(
    const TriadConfig& config) {
  const int64_t h = config.hidden_dim;
  const int64_t k = config.kernel_size;
  std::vector<std::vector<int64_t>> out;
  for (Domain d : DomainsOf(config)) {
    int64_t in = DomainChannels(d);
    for (int64_t b = 0; b < config.depth; ++b, in = h) {
      // conv1, conv2 and, when the width changes, the projection: a weight
      // and a bias each, as DilatedResidualBlock lists them.
      out.insert(out.end(), {{h, in, k}, {h}, {h, h, k}, {h}});
      if (in != h) out.insert(out.end(), {{h, in, 1}, {h}});
    }
  }
  out.insert(out.end(), {{h, h}, {h}, {h, 1}, {1}});  // the shared heads
  return out;
}

namespace {

// Off-diagonal 0/1 mask of size [B, B].
Var OffDiagonalMask(int64_t b) {
  nn::Tensor mask({b, b});
  for (int64_t i = 0; i < b; ++i) {
    for (int64_t j = 0; j < b; ++j) {
      mask.at(i, j) = (i == j) ? 0.0f : 1.0f;
    }
  }
  return nn::Constant(std::move(mask));
}

}  // namespace

Var TriadModel::IntraDomainLoss(const Var& orig_norm,
                                const Var& aug_norm) const {
  const int64_t B = orig_norm.shape()[0];
  TRIAD_CHECK_GE(B, 2);
  const float inv_temp = 1.0f / static_cast<float>(config_.temperature);

  // Positive pairs: other originals in the batch (Eq. 5 numerator).
  Var pos_logits =
      nn::MulScalar(nn::MatMul(orig_norm, nn::TransposeLast2(orig_norm)),
                    inv_temp);                       // [B, B]
  Var pos_exp = nn::Mul(nn::Exp(pos_logits), OffDiagonalMask(B));
  Var s_pos = nn::Sum(pos_exp, /*axis=*/1, false);   // [B]

  // Negative pairs: every augmented representation in the batch.
  Var neg_logits =
      nn::MulScalar(nn::MatMul(orig_norm, nn::TransposeLast2(aug_norm)),
                    inv_temp);
  Var s_neg = nn::Sum(nn::Exp(neg_logits), /*axis=*/1, false);  // [B]

  Var ratio = nn::Div(s_pos, nn::Add(s_pos, s_neg));
  return nn::Neg(nn::MeanAll(nn::Log(ratio)));
}

Var TriadModel::InterDomainLoss(const std::vector<Var>& domain_norms) const {
  TRIAD_CHECK_GE(domain_norms.size(), 2u);
  const int64_t B = domain_norms[0].shape()[0];
  const float inv_temp = 1.0f / static_cast<float>(config_.temperature);
  Var mask = OffDiagonalMask(B);

  std::vector<Var> per_domain;
  for (size_t d = 0; d < domain_norms.size(); ++d) {
    // Positives: same-domain, other instances (as in Eq. 5).
    Var pos_logits = nn::MulScalar(
        nn::MatMul(domain_norms[d], nn::TransposeLast2(domain_norms[d])),
        inv_temp);
    Var s_pos = nn::Sum(nn::Mul(nn::Exp(pos_logits), mask), 1, false);  // [B]

    // Negatives: the same instance represented in the other domains.
    Var s_neg;
    for (size_t d2 = 0; d2 < domain_norms.size(); ++d2) {
      if (d2 == d) continue;
      Var dots = nn::Sum(nn::Mul(domain_norms[d], domain_norms[d2]),
                         /*axis=*/1, false);          // [B] row-wise dots
      Var e = nn::Exp(nn::MulScalar(dots, inv_temp));
      s_neg = s_neg.empty() ? e : nn::Add(s_neg, e);
    }
    Var ratio = nn::Div(s_pos, nn::Add(s_pos, s_neg));
    per_domain.push_back(nn::Neg(nn::MeanAll(nn::Log(ratio))));
  }
  Var total = per_domain[0];
  for (size_t i = 1; i < per_domain.size(); ++i) {
    total = nn::Add(total, per_domain[i]);
  }
  return nn::MulScalar(total, 1.0f / static_cast<float>(per_domain.size()));
}

Var TriadModel::TotalLoss(const std::vector<Var>& orig_norms,
                          const std::vector<Var>& aug_norms) const {
  TRIAD_CHECK_EQ(orig_norms.size(), aug_norms.size());
  TRIAD_CHECK(!orig_norms.empty());
  const float alpha = static_cast<float>(config_.alpha);

  Var intra;
  if (config_.use_intra_loss) {
    for (size_t d = 0; d < orig_norms.size(); ++d) {
      Var l = IntraDomainLoss(orig_norms[d], aug_norms[d]);
      intra = intra.empty() ? l : nn::Add(intra, l);
    }
    intra =
        nn::MulScalar(intra, 1.0f / static_cast<float>(orig_norms.size()));
  }

  Var inter;
  if (config_.use_inter_loss && orig_norms.size() >= 2) {
    inter = InterDomainLoss(orig_norms);
  }

  if (!intra.empty() && !inter.empty()) {
    return nn::Add(nn::MulScalar(inter, alpha),
                   nn::MulScalar(intra, 1.0f - alpha));
  }
  if (!intra.empty()) return intra;
  TRIAD_CHECK_MSG(!inter.empty(),
                  "both contrastive losses disabled or unusable");
  return inter;
}

}  // namespace triad::core
