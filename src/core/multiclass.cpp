#include "ppds/core/multiclass.hpp"

#include <algorithm>

namespace ppds::core {

MulticlassServer::MulticlassServer(svm::MulticlassModel model,
                                   ClassificationProfile profile,
                                   SchemeConfig config)
    : model_(std::move(model)), profile_(profile), config_(config) {
  servers_.reserve(model_.pairs().size());
  for (const svm::PairwiseModel& pair : model_.pairs()) {
    servers_.emplace_back(pair.model, profile_, config_);
  }
}

void MulticlassServer::serve(net::Endpoint& channel, std::size_t count,
                             Rng& rng) const {
  for (std::size_t i = 0; i < count; ++i) {
    // One OT engine per query, shared by every pairwise round: the query
    // pays one seed agreement, not one per class pair.
    OtBundle ot(config_, rng);
    for (const ClassificationServer& server : servers_) {
      server.serve(channel, 1, rng, &ot);
    }
  }
}

MulticlassClient::MulticlassClient(const svm::MulticlassModel& vote_book,
                                   ClassificationProfile profile,
                                   SchemeConfig config)
    : labels_(vote_book.labels()), binary_(profile, config), config_(config) {
  pair_labels_.reserve(vote_book.pairs().size());
  for (const svm::PairwiseModel& pair : vote_book.pairs()) {
    pair_labels_.emplace_back(pair.positive_label, pair.negative_label);
  }
}

int MulticlassClient::classify(net::Endpoint& channel,
                               const std::vector<double>& sample,
                               Rng& rng) const {
  std::vector<int> votes(labels_.size(), 0);
  auto label_index = [&](int label) {
    return static_cast<std::size_t>(
        std::lower_bound(labels_.begin(), labels_.end(), label) -
        labels_.begin());
  };
  OtBundle ot(config_, rng);  // mirrors MulticlassServer::serve()
  for (const auto& [pos, neg] : pair_labels_) {
    const int sign =
        binary_.classify_batch(channel, {sample}, rng, &ot).front();
    votes[label_index(sign >= 0 ? pos : neg)] += 1;
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < votes.size(); ++i) {
    if (votes[i] > votes[best]) best = i;
  }
  return labels_[best];
}

}  // namespace ppds::core
