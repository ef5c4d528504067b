#pragma once

#include <optional>
#include <vector>

#include "ppds/common/secret_taint.hpp"
#include "ppds/core/config.hpp"
#include "ppds/crypto/sha256.hpp"
#include "ppds/math/monomial.hpp"
#include "ppds/math/multipoly.hpp"
#include "ppds/net/channel.hpp"
#include "ppds/svm/model.hpp"

/// \file classification.hpp
/// Privacy-preserving data classification (Section IV of the paper).
///
/// Alice (ClassificationServer) owns a trained SVM; Bob
/// (ClassificationClient) owns unlabeled samples. Per query Bob learns only
/// the randomized decision value ra * d(t̃) — hence the class sign — while
/// Alice learns nothing about t̃ and Bob learns nothing about the model
/// (Level 1), nor can colluding clients reconstruct it (Level 2, thanks to
/// the fresh per-query amplifier ra > 0).
///
/// Public between the parties: feature dimension, kernel type and kernel
/// hyperparameters (a0, b0, p / Taylor order), and the SchemeConfig. Secret:
/// Alice's support vectors / coefficients / bias, Bob's sample.

namespace ppds::core {

/// The public protocol profile both parties derive from the kernel: the
/// feature map tau over which the decision function is linear. Build it with make()
/// and treat the public fields as read-only afterwards: make() absorbs them
/// into the digest midstate that protocol_digest() finishes, so a field
/// edited later would no longer match the digest the handshake sends.
struct ClassificationProfile {
  std::size_t input_dim = 0;       ///< n, Bob's feature count
  std::size_t poly_arity = 0;      ///< r, features of the OMPE linear form
  svm::Kernel kernel;              ///< public kernel hyperparameters
  /// The feature map, held only as the evaluation DAG of every monomial up
  /// to the kernel degree (polynomial) or Taylor order (RBF, sigmoid) in
  /// math::for_each_monomial's order; empty for the linear kernel: tau == t.
  /// make() builds it and the digest from (n, degree) and never stores the
  /// basis (a1a: 325,499 monomials). tau_j = tau_parent(j) * t_var(j), one
  /// multiply per monomial, bitwise-identical to math::monomial_transform
  /// (same ascending-variable product order).
  math::MonomialDag monomial_dag;

  /// Builds the profile both parties agree on. \p taylor_order is the
  /// truncation degree for RBF/sigmoid kernels (ignored otherwise).
  static ClassificationProfile make(std::size_t input_dim,
                                    const svm::Kernel& kernel,
                                    unsigned taylor_order = 4);

  /// Bob's local transform t -> tau (identity for the linear kernel).
  std::vector<double> transform(const std::vector<double>& sample) const;

  /// Batched transform, bit-identical per sample to transform(): sweeps the
  /// monomial DAG over blocks of eight samples in an SoA layout, turning
  /// the latency-bound per-sample multiply chain into eight independent
  /// chains the compiler vectorizes. The batch query paths always use it;
  /// batches under eight samples fall back to transform().
  std::vector<std::vector<double>> transform_batch(
      const std::vector<std::vector<double>>& samples) const;

  /// SHA-256 midstate over the profile half of protocol_digest(): protocol
  /// version, shape, kernel and monomial exponent stream, absorbed once by
  /// make() so a session does not rehash the basis (40 MB for a1a's
  /// polynomial kernel). Throws InvalidArgument on a profile make() did not
  /// build.
  const crypto::Sha256& parameter_midstate() const;

 private:
  std::optional<crypto::Sha256> parameter_midstate_;
};

/// Alice: serves private classification queries from her model.
class ClassificationServer {
 public:
  /// \p model must use the same kernel the profile was built from. Only
  /// the decision function's expansion over the profile's features is kept.
  ClassificationServer(const svm::SvmModel& model,
                       const ClassificationProfile& profile,
                       SchemeConfig config);

  /// Serves \p count queries over the channel. \p ot is the connection's
  /// OtBundle, reused across its sessions (the seed agreement and staged
  /// pads survive the session); null throws InvalidArgument before any
  /// byte is sent.
  void serve(net::Endpoint& channel, std::size_t count, Rng& rng,
             OtBundle* ot) const;

 private:
  SchemeConfig config_;
  /// The decision function as a linear form over the profile's features.
  PPDS_SECRET math::LinearExpansion expansion_;
};

/// The coefficient form of the decision function over the profile's
/// features: d(tau) = coeffs . tau + constant. The polynomial kernel uses a
/// closed form, one DAG sweep per support vector (a MultiPoly of a1a's 325k
/// monomials is what it avoids); RBF and sigmoid linearize their Taylor
/// MultiPoly over the basis, regenerated by math::monomials_up_to.
math::LinearExpansion expand_decision_coefficients(
    const svm::SvmModel& model, const ClassificationProfile& profile);

/// Bob: issues private classification queries.
class ClassificationClient {
 public:
  ClassificationClient(ClassificationProfile profile, SchemeConfig config);

  /// One query: returns the randomized decision value ra * d(t̃) (sign is
  /// the class). The paper's Bob only ever uses the sign; the raw value is
  /// exposed to let the attack evaluations show it is useless (Fig. 5).
  /// Every call takes the connection's OtBundle \p ot (as in
  /// ClassificationServer::serve()). A server serve(count) stages the OT
  /// slots of all count queries up front, so count single-query calls can
  /// match it only while count * m slots fit one correction block
  /// (crypto::kSilentStageQuantum); past that, match it with one batch
  /// call, or serve the queries one at a time.
  double query_value(net::Endpoint& channel, const std::vector<double>& sample,
                     Rng& rng, OtBundle* ot) const;

  /// One query, returning the class label in {+1, -1}.
  int classify(net::Endpoint& channel, const std::vector<double>& sample,
               Rng& rng, OtBundle* ot) const;

  /// Batch of queries against a server serving the same count: the OT
  /// slots for the whole batch are staged in one block, so the server's
  /// serve(count) is matched by one batch call.
  std::vector<double> query_values_batch(
      net::Endpoint& channel, const std::vector<std::vector<double>>& samples,
      Rng& rng, OtBundle* ot) const;

  /// Batch classify: signs of query_values_batch.
  std::vector<int> classify_batch(
      net::Endpoint& channel, const std::vector<std::vector<double>>& samples,
      Rng& rng, OtBundle* ot) const;

 private:
  ClassificationProfile profile_;
  SchemeConfig config_;
};

/// Expands a trained model's decision function into the profile's polynomial
/// basis (shared by the server and by tests).
math::MultiPoly expand_decision_function(const svm::SvmModel& model,
                                         const ClassificationProfile& profile);

}  // namespace ppds::core
