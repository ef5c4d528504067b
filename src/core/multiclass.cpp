#include "ppds/core/multiclass.hpp"

#include <algorithm>

namespace ppds::core {

MulticlassServer::MulticlassServer(const svm::MulticlassModel& model,
                                   const ClassificationProfile& profile,
                                   SchemeConfig config) {
  servers_.reserve(model.pairs().size());
  for (const svm::PairwiseModel& pair : model.pairs()) {
    servers_.emplace_back(pair.model, profile, config);
  }
}

void MulticlassServer::serve(net::Endpoint& channel, std::size_t count,
                             Rng& rng, OtBundle* ot) const {
  require_bundle(ot, "MulticlassServer::serve");
  for (std::size_t i = 0; i < count; ++i) {
    for (const ClassificationServer& server : servers_) {
      server.serve(channel, 1, rng, ot);
    }
  }
}

MulticlassClient::MulticlassClient(const svm::MulticlassModel& vote_book,
                                   ClassificationProfile profile,
                                   SchemeConfig config)
    : labels_(vote_book.labels()), binary_(profile, config) {
  pair_labels_.reserve(vote_book.pairs().size());
  for (const svm::PairwiseModel& pair : vote_book.pairs()) {
    pair_labels_.emplace_back(pair.positive_label, pair.negative_label);
  }
}

int MulticlassClient::classify(net::Endpoint& channel,
                               const std::vector<double>& sample,
                               Rng& rng, OtBundle* ot) const {
  require_bundle(ot, "MulticlassClient::classify");
  std::vector<int> votes(labels_.size(), 0);
  auto label_index = [&](int label) {
    return static_cast<std::size_t>(
        std::lower_bound(labels_.begin(), labels_.end(), label) -
        labels_.begin());
  };
  for (const auto& [pos, neg] : pair_labels_) {
    const int sign = binary_.classify(channel, sample, rng, ot);
    votes[label_index(sign >= 0 ? pos : neg)] += 1;
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < votes.size(); ++i) {
    if (votes[i] > votes[best]) best = i;
  }
  return labels_[best];
}

}  // namespace ppds::core
