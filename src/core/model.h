#ifndef TRIAD_CORE_MODEL_H_
#define TRIAD_CORE_MODEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.h"
#include "core/features.h"
#include "nn/layers.h"

namespace triad::core {

/// \brief One domain's encoder: `depth` dilated residual conv blocks whose
/// dilation doubles per block (paper Section III-B), lifting C input
/// channels to h_d hidden channels at full temporal resolution.
class DomainEncoder : public nn::Module {
 public:
  DomainEncoder(int64_t in_channels, const TriadConfig& config, Rng* rng);

  /// x: [B, C, L] -> hidden [B, h_d, L].
  nn::Var Forward(const nn::Var& x) const;
  std::vector<nn::Var> Parameters() const override;

 private:
  std::vector<std::unique_ptr<nn::DilatedResidualBlock>> blocks_;
};

/// \brief The full TriAD network: three domain encoders plus the two dense
/// layers *shared across domains* that compress [B, L, h_d] down to the
/// per-window representation r in R^L.
class TriadModel : public nn::Module {
 public:
  TriadModel(const TriadConfig& config, Rng* rng);

  /// Encodes a domain batch [B, C, L] to representations [B, L].
  nn::Var Encode(Domain domain, const nn::Var& x) const;

  /// L2-normalized representations [B, L] (unit rows), the form used by
  /// both the contrastive losses and inference similarity.
  nn::Var EncodeNormalized(Domain domain, const nn::Var& x) const;

  std::vector<nn::Var> Parameters() const override;
  const TriadConfig& config() const { return config_; }

  /// The number of tensors Parameters() returns for a model built from
  /// `config`, computed without building it. Saturates at INT64_MAX, so a
  /// hostile depth cannot overflow it.
  static int64_t ParameterTensorCount(const TriadConfig& config);

  /// The shapes of those tensors, in Parameters() order, computed without
  /// building the model. Lists ParameterTensorCount(config) shapes, so a
  /// caller holding an untrusted config compares the count first.
  static std::vector<std::vector<int64_t>> ParameterShapes(
      const TriadConfig& config);

  // ----- contrastive losses (Section III-C) -----

  /// Intra-domain loss (Eq. 5) from normalized original and augmented
  /// representations of one domain. Batch size must be >= 2.
  nn::Var IntraDomainLoss(const nn::Var& orig_norm,
                          const nn::Var& aug_norm) const;

  /// Inter-domain loss (Eq. 6) from the normalized original representations
  /// of every enabled domain (>= 2 entries).
  nn::Var InterDomainLoss(const std::vector<nn::Var>& domain_norms) const;

  /// Total loss (Eq. 7): alpha * inter + (1 - alpha) * intra, honoring the
  /// ablation switches. `orig_norms`/`aug_norms` are indexed by enabled
  /// domain order.
  nn::Var TotalLoss(const std::vector<nn::Var>& orig_norms,
                    const std::vector<nn::Var>& aug_norms) const;

  /// The enabled domains, in a stable order.
  std::vector<Domain> EnabledDomains() const;

 private:
  TriadConfig config_;
  std::unique_ptr<DomainEncoder> temporal_;
  std::unique_ptr<DomainEncoder> frequency_;
  std::unique_ptr<DomainEncoder> residual_;
  std::unique_ptr<nn::Linear> head1_;  // h_d -> h_d, shared
  std::unique_ptr<nn::Linear> head2_;  // h_d -> 1, shared
};

}  // namespace triad::core

#endif  // TRIAD_CORE_MODEL_H_
