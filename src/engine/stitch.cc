#include "engine/stitch.h"

#include <utility>

namespace ddc {

int32_t LabelTable::Builder::Intern(const Key& key) {
  auto [idx, inserted] =
      table_->index_.Emplace(key, static_cast<int32_t>(table_->index_.size()));
  if (inserted) uf_.EnsureSize(*idx + 1);
  return *idx;
}

void LabelTable::Builder::Union(const Key& a, const Key& b) {
  uf_.Union(Intern(a), Intern(b));
}

std::shared_ptr<const LabelTable> LabelTable::Builder::Finish() && {
  table_->root_.resize(table_->index_.size());
  for (int32_t i = 0; i < static_cast<int32_t>(table_->root_.size()); ++i) {
    table_->root_[i] = uf_.Find(i);
  }
  return std::move(table_);
}

}  // namespace ddc
