(** The PolTree compiler: resolves the tree's inheritance and override
    semantics into exact {!Heimdall_net.Packet_set} hypercube unions.

    Decision semantics, made precise:

    - A node's {e universe} is the set of packets whose destination lies
      in its declared scope, intersected with every ancestor's universe.
    - Within a node's universe, its {e children decide first} (in
      declaration order — an earlier sibling's decisions pre-empt a
      later sibling's on any overlap), then the node's own rules apply
      first-match to whatever the children left undecided.  A child
      [allow] therefore overrides a parent [deny] for the child's scope
      — the child-overrides semantics.
    - [deny!] rules are invariants: besides deciding in sequence like a
      plain deny, their {e full} packet set is subtracted from the final
      permit set, so no descendant [allow] can resurrect the traffic
      (the contradiction POL001 reports).
    - [require w] rules decide nothing; they mark their packet set as
      needing waypoint [w].  The final require set of a waypoint is that
      union intersected with the final permit set.
    - Traffic no node decides falls to the implicit default: deny.

    Per-rule {e effective} sets record exactly the traffic each rule
    contributes to the final decision — after earlier rules in the node,
    after descendant decisions, and after earlier-sibling pre-emption at
    every ancestor (invariant subtraction excepted, so POL001 stays
    observable).  A rule whose effective set is empty is dead (POL002). *)

open Heimdall_net

type crule = {
  rule : Poltree.rule;
  index : int;  (** Position in the owning node's rule list. *)
  full : Packet_set.t;  (** Selector ∩ node universe. *)
  effective : Packet_set.t;  (** Contribution to the final decision. *)
}

type cnode = {
  path : string;  (** ["root/campus/building-a"]. *)
  name : string;
  depth : int;  (** Root is 0. *)
  universe : Packet_set.t;  (** dst ∈ scope, clipped by ancestors. *)
  owners : string list;
  crules : crule list;
  decided : Packet_set.t;  (** Decided by this node or a descendant. *)
  permit : Packet_set.t;  (** Pre-invariant permit of the subtree. *)
  invariant : Packet_set.t;  (** Union of this node's own [deny!] sets. *)
  is_leaf : bool;
}

type leaf = {
  leaf_path : string;
  leaf_universe : Packet_set.t;
  leaf_permit : Packet_set.t;  (** Final (invariant-subtracted). *)
  leaf_requires : (string * Packet_set.t) list;  (** Per waypoint. *)
}

type compiled = {
  tree : Poltree.t;
  nodes : cnode list;  (** Preorder. *)
  permit : Packet_set.t;  (** The one exact permit set. *)
  decided : Packet_set.t;  (** Explicitly decided (permit or deny). *)
  requires : (string * Packet_set.t) list;
      (** Waypoint → required ∩ permit, sorted by waypoint. *)
  leaves : leaf list;  (** Scope summaries for the tree's leaf nodes. *)
}

val compile : Poltree.t -> (compiled, string) result
(** Validates, then compiles.  Deterministic: equal trees compile to
    equal structures. *)

val compile_exn : Poltree.t -> compiled
(** @raise Invalid_argument on a tree {!Poltree.validate} rejects. *)

type verdict =
  | Permit of string list  (** Required waypoints, sorted (often []). *)
  | Deny_explicit  (** Some rule denies the flow. *)
  | Deny_default  (** No node decides it; the implicit default. *)

val verdict : compiled -> Flow.t -> verdict

(** {1 Diff} *)

type tree_diff = {
  only_a : Packet_set.t;  (** Permitted by [a] but not [b]. *)
  only_b : Packet_set.t;
  require_drift : (string * Packet_set.t * Packet_set.t) list;
      (** Waypoint, required only in [a], required only in [b] —
          restricted to traffic both trees permit. *)
}

val diff : compiled -> compiled -> tree_diff
val diff_is_empty : tree_diff -> bool

val render_diff : tree_diff -> string
(** Human-readable, with {!Heimdall_net.Packet_set.sample} witness
    packets for every non-empty drift direction; ["identical"] when
    empty. *)
