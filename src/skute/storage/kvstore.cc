#include "skute/storage/kvstore.h"

namespace skute {

Status KvStore::Put(std::string_view key, std::string_view value) {
  std::string k(key);
  const std::string* old = table_.Find(k);
  if (old != nullptr) {
    bytes_ -= old->size();
    bytes_ += value.size();
    table_.Insert(k, std::string(value));
    return Status::OK();
  }
  table_.Insert(std::move(k), std::string(value));
  bytes_ += key.size() + value.size();
  return Status::OK();
}

Result<std::string> KvStore::Get(std::string_view key) const {
  const std::string* v = table_.Find(std::string(key));
  if (v == nullptr) return Status::NotFound("key not found");
  return *v;
}

Status KvStore::Delete(std::string_view key) {
  std::string k(key);
  const std::string* v = table_.Find(k);
  if (v == nullptr) return Status::NotFound("key not found");
  bytes_ -= k.size() + v->size();
  table_.Erase(k);
  return Status::OK();
}

bool KvStore::Contains(std::string_view key) const {
  return table_.Find(std::string(key)) != nullptr;
}

std::vector<std::pair<std::string, std::string>> KvStore::Scan(
    std::string_view start_key, size_t limit) const {
  std::vector<std::pair<std::string, std::string>> out;
  auto it = table_.Seek(std::string(start_key));
  while (it.Valid() && out.size() < limit) {
    out.emplace_back(it.key(), it.value());
    it.Next();
  }
  return out;
}

void KvStore::Clear() {
  table_.Clear();
  bytes_ = 0;
}

}  // namespace skute
