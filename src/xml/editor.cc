#include "xml/editor.h"

#include "common/macros.h"
#include "common/string_util.h"

namespace xmlreval::xml {

std::optional<std::string> ModificationIndex::OldLabel(const Document& doc,
                                                       NodeId node) const {
  auto it = deltas_.find(node);
  if (it == deltas_.end()) return std::string(doc.label(node));
  const Delta& d = it->second;
  switch (d.kind) {
    case DeltaKind::kInserted:
      return std::nullopt;  // ε: did not exist in T
    case DeltaKind::kRenamed:
      return d.old_label;
    case DeltaKind::kDeleted:
      if (d.never_existed) return std::nullopt;
      return d.old_label.empty() ? std::string(doc.label(node)) : d.old_label;
    default:
      return std::string(doc.label(node));
  }
}

std::optional<std::string> ModificationIndex::NewLabel(const Document& doc,
                                                       NodeId node) const {
  auto it = deltas_.find(node);
  if (it != deltas_.end() && it->second.kind == DeltaKind::kDeleted) {
    return std::nullopt;  // ε: absent from T'
  }
  return std::string(doc.label(node));
}

std::optional<automata::Symbol> ModificationIndex::OldSymbol(
    const Document& doc, NodeId node) const {
  auto it = deltas_.find(node);
  if (it == deltas_.end()) return doc.symbol(node);
  const Delta& d = it->second;
  switch (d.kind) {
    case DeltaKind::kInserted:
      return std::nullopt;  // ε: did not exist in T
    case DeltaKind::kRenamed:
    case DeltaKind::kDeleted: {
      if (d.kind == DeltaKind::kDeleted && d.never_existed) return std::nullopt;
      // Deleted nodes keep their label, so the node's own symbol is the
      // T-symbol unless a rename preceded the delete (old_label captured).
      if (d.old_label.empty()) return doc.symbol(node);
      if (d.old_symbol != automata::kUnboundSymbol) return d.old_symbol;
      // Bound after the edit: re-resolve the captured old label.
      if (const automata::Alphabet* a = doc.bound_alphabet()) {
        auto sym = a->Find(d.old_label);
        return sym ? *sym : automata::kUnboundSymbol;
      }
      return automata::kUnboundSymbol;
    }
    default:
      return doc.symbol(node);
  }
}

Status DocumentEditor::MarkTouched(NodeId node, DeltaKind kind,
                                   std::string old_label,
                                   automata::Symbol old_symbol) {
  if (sealed_) return Status::FailedPrecondition("editor already sealed");
  auto [it, fresh] = index_.deltas_.try_emplace(
      node,
      ModificationIndex::Delta{kind, std::move(old_label), old_symbol});
  if (!fresh) {
    // Collapse successive deltas on the same node so the annotation always
    // relates the ORIGINAL tree T to the FINAL encoded tree T'.
    ModificationIndex::Delta& d = it->second;
    if (kind == DeltaKind::kDeleted) {
      // Inserted-then-deleted never existed in either tree; renamed-then-
      // deleted keeps the rename's original label as its T-label.
      d.never_existed = (d.kind == DeltaKind::kInserted);
      d.kind = DeltaKind::kDeleted;
    } else if (kind == DeltaKind::kRenamed) {
      if (d.kind == DeltaKind::kUnchanged || d.kind == DeltaKind::kTextEdited) {
        d = ModificationIndex::Delta{kind, std::move(old_label), old_symbol};
      }
      // kInserted stays inserted; a second kRenamed keeps the first
      // rename's original label.
    }
    // kTextEdited over anything: no annotation change needed.
  } else {
    touched_.push_back(node);
  }
  ++index_.update_count_;
  return Status::OK();
}

Status DocumentEditor::CheckInsertParent(NodeId parent) const {
  if (sealed_) return Status::FailedPrecondition("editor already sealed");
  if (index_.IsDeleted(parent)) {
    return Status::FailedPrecondition("cannot insert under a deleted node");
  }
  return Status::OK();
}

bool DocumentEditor::EffectiveLeaf(NodeId node) const {
  for (NodeId c = doc_->first_child(node); c != kInvalidNode;
       c = doc_->next_sibling(c)) {
    if (!index_.IsDeleted(c)) return false;
  }
  return true;
}

Status DocumentEditor::RenameElement(NodeId node, std::string_view new_label) {
  if (sealed_) return Status::FailedPrecondition("editor already sealed");
  if (!doc_->IsAlive(node) || !doc_->IsElement(node)) {
    return Status::InvalidArgument("rename requires a live element");
  }
  if (index_.IsDeleted(node)) {
    return Status::FailedPrecondition("cannot rename a deleted node");
  }
  std::string old_label(doc_->label(node));
  automata::Symbol old_symbol = doc_->symbol(node);
  RETURN_IF_ERROR(doc_->Rename(node, new_label));
  return MarkTouched(node, DeltaKind::kRenamed, std::move(old_label),
                     old_symbol);
}

Result<NodeId> DocumentEditor::InsertElementBefore(NodeId reference,
                                                   std::string_view label) {
  RETURN_IF_ERROR(CheckInsertSibling(reference));
  NodeId node = doc_->CreateElement(label);
  RETURN_IF_ERROR(doc_->InsertBefore(reference, node));
  RETURN_IF_ERROR(MarkTouched(node, DeltaKind::kInserted));
  return node;
}

Result<NodeId> DocumentEditor::InsertElementAfter(NodeId reference,
                                                  std::string_view label) {
  RETURN_IF_ERROR(CheckInsertSibling(reference));
  NodeId node = doc_->CreateElement(label);
  RETURN_IF_ERROR(doc_->InsertAfter(reference, node));
  RETURN_IF_ERROR(MarkTouched(node, DeltaKind::kInserted));
  return node;
}

Result<NodeId> DocumentEditor::InsertElementFirstChild(NodeId parent,
                                                       std::string_view label) {
  RETURN_IF_ERROR(CheckInsertParent(parent));
  NodeId node = doc_->CreateElement(label);
  RETURN_IF_ERROR(doc_->InsertFirstChild(parent, node));
  RETURN_IF_ERROR(MarkTouched(node, DeltaKind::kInserted));
  return node;
}

Result<NodeId> DocumentEditor::InsertTextFirstChild(NodeId parent,
                                                    std::string_view text) {
  RETURN_IF_ERROR(CheckInsertParent(parent));
  NodeId node = doc_->CreateText(text);
  RETURN_IF_ERROR(doc_->InsertFirstChild(parent, node));
  RETURN_IF_ERROR(MarkTouched(node, DeltaKind::kInserted));
  return node;
}

Result<NodeId> DocumentEditor::InsertTextBefore(NodeId reference,
                                                std::string_view text) {
  RETURN_IF_ERROR(CheckInsertSibling(reference));
  NodeId node = doc_->CreateText(text);
  RETURN_IF_ERROR(doc_->InsertBefore(reference, node));
  RETURN_IF_ERROR(MarkTouched(node, DeltaKind::kInserted));
  return node;
}

Result<NodeId> DocumentEditor::InsertTextAfter(NodeId reference,
                                               std::string_view text) {
  RETURN_IF_ERROR(CheckInsertSibling(reference));
  NodeId node = doc_->CreateText(text);
  RETURN_IF_ERROR(doc_->InsertAfter(reference, node));
  RETURN_IF_ERROR(MarkTouched(node, DeltaKind::kInserted));
  return node;
}

Status DocumentEditor::DeleteLeaf(NodeId node) {
  if (sealed_) return Status::FailedPrecondition("editor already sealed");
  if (!doc_->IsAlive(node)) {
    return Status::InvalidArgument("delete requires a live node");
  }
  if (index_.IsDeleted(node)) {
    return Status::FailedPrecondition("node is already deleted");
  }
  if (!EffectiveLeaf(node)) {
    return Status::FailedPrecondition(
        "DeleteLeaf requires a leaf (delete descendants first)");
  }
  if (node == doc_->root()) {
    return Status::FailedPrecondition("cannot delete the document root");
  }
  RETURN_IF_ERROR(MarkTouched(node, DeltaKind::kDeleted));
  deleted_.push_back(node);
  return Status::OK();
}

Status DocumentEditor::UpdateText(NodeId node, std::string_view text) {
  if (sealed_) return Status::FailedPrecondition("editor already sealed");
  if (!doc_->IsAlive(node) || !doc_->IsText(node)) {
    return Status::InvalidArgument("UpdateText requires a live text node");
  }
  if (index_.IsDeleted(node)) {
    return Status::FailedPrecondition("cannot update a deleted node");
  }
  RETURN_IF_ERROR(doc_->SetText(node, text));
  return MarkTouched(node, DeltaKind::kTextEdited);
}

ModificationIndex DocumentEditor::Seal() {
  sealed_ = true;
  // modified() holds for each touched node and all its ancestors in the
  // final encoded tree (deleted nodes still linked). A walk stops at the
  // first node whose chain an earlier walk marked, so every node is
  // entered at most once.
  for (NodeId node : touched_) {
    for (NodeId n = node; n != kInvalidNode; n = doc_->parent(n)) {
      bool& marked = index_.deltas_[n].chain_marked;
      if (marked) break;
      marked = true;
    }
  }
  return std::move(index_);
}

Status DocumentEditor::Apply(const EditOp& op) {
  switch (op.kind) {
    case EditOp::Kind::kRename:
      return RenameElement(op.node, op.value);
    case EditOp::Kind::kInsertElementFirstChild:
      return InsertElementFirstChild(op.node, op.value).status();
    case EditOp::Kind::kInsertElementBefore:
      return InsertElementBefore(op.node, op.value).status();
    case EditOp::Kind::kInsertElementAfter:
      return InsertElementAfter(op.node, op.value).status();
    case EditOp::Kind::kInsertTextFirstChild:
      return InsertTextFirstChild(op.node, op.value).status();
    case EditOp::Kind::kInsertTextBefore:
      return InsertTextBefore(op.node, op.value).status();
    case EditOp::Kind::kInsertTextAfter:
      return InsertTextAfter(op.node, op.value).status();
    case EditOp::Kind::kDeleteLeaf:
      return DeleteLeaf(op.node);
    case EditOp::Kind::kUpdateText:
      return UpdateText(op.node, op.value);
  }
  return Status::InvalidArgument("unknown EditOp kind");
}

Status DocumentEditor::Commit() {
  if (!sealed_) {
    return Status::FailedPrecondition("Seal() the editor before Commit()");
  }
  // DeleteLeaf takes only effective leaves and no insert lands under a
  // deleted node, so by the time a node is removed its children are gone.
  for (NodeId node : deleted_) {
    if (doc_->HasChildren(node)) {
      return Status::Internal("deleted subtree contains non-deleted nodes");
    }
    RETURN_IF_ERROR(doc_->RemoveLeaf(node));
  }
  return Status::OK();
}

}  // namespace xmlreval::xml
