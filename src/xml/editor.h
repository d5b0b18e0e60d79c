// DocumentEditor: the update model of Section 3.3.
//
// The paper's three update kinds — rename an element label, insert a new
// leaf, delete a leaf — are applied through this editor, which maintains the
// Δ-encoding of the modified tree T':
//
//   * a renamed node corresponds to a Δ^a_b label (old label a retained),
//   * an inserted node to Δ^ε_b,
//   * a deleted node to Δ^a_ε — the node REMAINS physically linked in the
//     tree, marked deleted, so that both the old label string (Proj_old) and
//     the new one (Proj_new) can be read off each content model, and so
//     Dewey numbers stay consistent with the encoded tree,
//   * a text-value update to Δ^χ_χ (label unchanged, content dirty).
//
// Seal() freezes the edit session and produces a ModificationIndex: the
// per-node annotations plus a mark on every ancestor of a touched node,
// which together answer modified() by NodeId for core::ModValidator.
// Commit() physically removes deleted nodes and drops the annotations,
// yielding the plain edited document.

#ifndef XMLREVAL_XML_EDITOR_H_
#define XMLREVAL_XML_EDITOR_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "automata/alphabet.h"
#include "common/result.h"
#include "xml/tree.h"

namespace xmlreval::xml {

/// How a single node was touched by the edit session.
enum class DeltaKind : uint8_t {
  kUnchanged,
  kRenamed,   // Δ^a_b
  kInserted,  // Δ^ε_b
  kDeleted,   // Δ^a_ε
  kTextEdited,  // Δ^χ_χ — text node whose character data changed
};

/// Read-only view of a sealed edit session.
class ModificationIndex {
 public:
  /// The paper's modified() predicate: does the subtree rooted at `node`
  /// (in the encoded tree) contain any modification? True exactly for the
  /// touched nodes and their ancestors.
  bool SubtreeModified(NodeId node) const { return deltas_.count(node) != 0; }

  DeltaKind Kind(NodeId node) const {
    auto it = deltas_.find(node);
    return it == deltas_.end() ? DeltaKind::kUnchanged : it->second.kind;
  }

  bool IsDeleted(NodeId node) const { return Kind(node) == DeltaKind::kDeleted; }
  bool IsInserted(NodeId node) const {
    return Kind(node) == DeltaKind::kInserted;
  }

  /// The node's label in the ORIGINAL tree T (Proj_old): the stored old
  /// label for renamed nodes, nullopt for inserted nodes (ε), the current
  /// label otherwise.
  std::optional<std::string> OldLabel(const Document& doc, NodeId node) const;

  /// The node's label in the edited tree T' (Proj_new): nullopt for deleted
  /// nodes (ε), the current label otherwise.
  std::optional<std::string> NewLabel(const Document& doc, NodeId node) const;

  /// Symbol-level Proj_old: the node's interned symbol in the ORIGINAL tree
  /// T, nullopt for ε (inserted / never-existed). Renamed and deleted nodes
  /// return the symbol captured at edit time; if the document was bound only
  /// after the edit, the stored old label is re-resolved through the bound
  /// alphabet. Out-of-Σ old labels (and unbound documents) yield
  /// automata::kUnboundSymbol, which never matches any transition.
  std::optional<automata::Symbol> OldSymbol(const Document& doc,
                                            NodeId node) const;

  /// Symbol-level Proj_new: nullopt for deleted nodes (ε), doc.symbol(node)
  /// otherwise.
  std::optional<automata::Symbol> NewSymbol(const Document& doc,
                                            NodeId node) const {
    auto it = deltas_.find(node);
    if (it != deltas_.end() && it->second.kind == DeltaKind::kDeleted) {
      return std::nullopt;
    }
    return doc.symbol(node);
  }

  size_t update_count() const { return update_count_; }
  bool empty() const { return update_count_ == 0; }

 private:
  friend class DocumentEditor;

  // One entry per touched node, and a kUnchanged one per untouched ancestor
  // of a touched node (added by Seal).
  struct Delta {
    DeltaKind kind = DeltaKind::kUnchanged;
    std::string old_label;   // original label in T, for kRenamed/kDeleted
    // Interned symbol of old_label, captured at edit time (kUnboundSymbol
    // when the document was unbound at that point).
    automata::Symbol old_symbol = automata::kUnboundSymbol;
    bool never_existed = false;  // inserted then deleted within the session
    // Seal has entered this node and every ancestor of it.
    bool chain_marked = false;
  };

  std::unordered_map<NodeId, Delta> deltas_;
  size_t update_count_ = 0;
};

/// One editor operation in replayable form: the edit-script vocabulary
/// shared by the random workload generator, the update-safety analyzer
/// (src/analysis/), and the service's SubmitEditStream entry point. Node
/// ids refer to the document the script is applied to; since the arena
/// assigns ids deterministically, a script recorded against one parse of a
/// document replays exactly against another parse of the same document.
struct EditOp {
  enum class Kind : uint8_t {
    kRename,                   // node = element, value = new label
    kInsertElementFirstChild,  // node = parent, value = label
    kInsertElementBefore,      // node = reference, value = label
    kInsertElementAfter,       // node = reference, value = label
    kInsertTextFirstChild,     // node = parent, value = character data
    kInsertTextBefore,         // node = reference, value = character data
    kInsertTextAfter,          // node = reference, value = character data
    kDeleteLeaf,               // node = effective leaf
    kUpdateText,               // node = text node, value = character data
  };
  Kind kind = Kind::kRename;
  NodeId node = kInvalidNode;
  std::string value;
};

/// Applies paper-model updates to a Document and records them.
class DocumentEditor {
 public:
  explicit DocumentEditor(Document* doc) : doc_(doc) {}

  /// Update kind 1: replace the label of an element node.
  Status RenameElement(NodeId node, std::string_view new_label);

  /// Update kind 2: insert a new leaf element. Returns the new node. Every
  /// insert fails with kFailedPrecondition when the new node's parent is
  /// deleted.
  Result<NodeId> InsertElementBefore(NodeId reference, std::string_view label);
  Result<NodeId> InsertElementAfter(NodeId reference, std::string_view label);
  Result<NodeId> InsertElementFirstChild(NodeId parent, std::string_view label);

  /// Update kind 2 for χ leaves: insert a new text leaf.
  Result<NodeId> InsertTextFirstChild(NodeId parent, std::string_view text);
  Result<NodeId> InsertTextBefore(NodeId reference, std::string_view text);
  Result<NodeId> InsertTextAfter(NodeId reference, std::string_view text);

  /// Update kind 3: delete a leaf. A node all of whose children are already
  /// deleted counts as a leaf, so subtrees are deleted bottom-up — the
  /// order Commit removes them in.
  Status DeleteLeaf(NodeId node);

  /// Replace the character data of a text node (a Δ^χ_χ modification).
  Status UpdateText(NodeId node, std::string_view text);

  /// Replays one recorded operation (dispatch over EditOp::Kind).
  Status Apply(const EditOp& op);

  /// Freezes the session: marks the ancestors of every touched node in the
  /// final encoded tree, each walk stopping at the first node already
  /// marked, and returns the index. Sealing costs the union of the touched
  /// nodes' ancestor chains. The editor must not be used afterwards.
  ModificationIndex Seal();

  /// Physically removes deleted nodes from the document in one pass over
  /// the deletion order. Call after validation, when the Δ-encoding is no
  /// longer needed.
  Status Commit();

  /// Whether `node` has been deleted within this (unsealed) session.
  /// Callers building edit scripts use this to skip Δ^a_ε nodes.
  bool IsDeleted(NodeId node) const { return index_.IsDeleted(node); }

  size_t update_count() const { return index_.update_count_; }

 private:
  Status MarkTouched(NodeId node, DeltaKind kind, std::string old_label = "",
                     automata::Symbol old_symbol = automata::kUnboundSymbol);

  /// OK unless the editor is sealed or `parent`, the parent an insert
  /// would attach to, is deleted (Commit cannot remove a deleted node that
  /// has a live child).
  Status CheckInsertParent(NodeId parent) const;
  Status CheckInsertSibling(NodeId reference) const {
    return CheckInsertParent(doc_->IsAlive(reference) ? doc_->parent(reference)
                                                      : kInvalidNode);
  }

  /// True if `node` has no live (non-deleted) children.
  bool EffectiveLeaf(NodeId node) const;

  Document* doc_;
  ModificationIndex index_;
  std::vector<NodeId> touched_;  // each touched node once, in first-touch order
  std::vector<NodeId> deleted_;  // deletion order: children before parents
  bool sealed_ = false;
};

}  // namespace xmlreval::xml

#endif  // XMLREVAL_XML_EDITOR_H_
