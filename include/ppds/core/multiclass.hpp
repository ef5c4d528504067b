#pragma once

#include "ppds/core/classification.hpp"
#include "ppds/svm/multiclass.hpp"

/// \file multiclass.hpp
/// Privacy-preserving one-vs-one multiclass classification.
///
/// Composition of the paper's binary protocol: per sample, the parties run
/// one private binary classification per class pair; the client tallies the
/// pairwise signs locally and outputs the majority label. The trainer
/// learns nothing about the sample (each pairwise run has Level-1 privacy);
/// the client learns the K(K-1)/2 pairwise signs — strictly more than the
/// final label, but each sign is still only a randomized-value sign, so the
/// Level-2 argument (amplified values, Fig. 5/6) applies per pair.
///
/// The class-pair LIST (which labels exist) is public protocol metadata,
/// like the feature dimension.

namespace ppds::core {

/// Alice: serves private multiclass queries.
class MulticlassServer {
 public:
  /// \p profile must match the kernel every pairwise model was trained
  /// with.
  MulticlassServer(const svm::MulticlassModel& model,
                   const ClassificationProfile& profile, SchemeConfig config);

  /// Serves \p count multiclass queries (count * num_pairs binary rounds)
  /// over the connection's OtBundle \p ot, so the connection pays one OT
  /// seed agreement whatever the number of queries and class pairs. Null
  /// throws InvalidArgument before any byte is sent.
  void serve(net::Endpoint& channel, std::size_t count, Rng& rng,
             OtBundle* ot) const;

  std::size_t num_pairs() const { return servers_.size(); }

 private:
  std::vector<ClassificationServer> servers_;  // one per class pair
};

/// Bob: issues private multiclass queries.
class MulticlassClient {
 public:
  /// \p vote_book is the public pair list + tally rule: a MulticlassModel
  /// whose pairwise labels MATCH the server's (its binary models are not
  /// used — only labels/pair order). In a deployment this is protocol
  /// metadata; here the natural way to carry it is the type itself.
  MulticlassClient(const svm::MulticlassModel& vote_book,
                   ClassificationProfile profile, SchemeConfig config);

  /// One private multiclass query: returns the winning class label. The
  /// connection's OtBundle \p ot carries every pairwise round (see
  /// MulticlassServer::serve()).
  int classify(net::Endpoint& channel, const std::vector<double>& sample,
               Rng& rng, OtBundle* ot) const;

 private:
  std::vector<std::pair<int, int>> pair_labels_;
  std::vector<int> labels_;
  ClassificationClient binary_;
};

}  // namespace ppds::core
