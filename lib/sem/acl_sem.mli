(** Semantic compilation of ACLs into packet sets.

    An ACL is first-match-wins with an implicit trailing deny, so it
    denotes a single packet set: the traffic it permits.  Compiling to
    that set makes equivalence, shadowing and diffing exact — two lists
    with different rules but the same [permit_set] behave identically,
    and every answer comes with a concrete witness packet. *)

open Heimdall_net

val permit_set : Acl.t -> Packet_set.t
(** The exact set of packets the ACL permits (first match wins; packets
    matched by no rule fall to the implicit deny). *)

val deny_set : Acl.t -> Packet_set.t
(** Complement of {!permit_set}. *)

val equivalent : Acl.t -> Acl.t -> bool
(** Semantic equivalence: same permit set (names and rule structure are
    ignored). *)

(** Semantic ACL diff: the traffic whose fate an edit changed. *)
type diff = {
  newly_permitted : Packet_set.t;  (** Denied before, permitted after. *)
  newly_denied : Packet_set.t;  (** Permitted before, denied after. *)
}

val diff : before:Acl.t -> after:Acl.t -> diff

val diff_is_empty : diff -> bool

val network_diffs :
  before:Heimdall_control.Network.t ->
  after:Heimdall_control.Network.t ->
  (string * string * diff) list
(** The semantic diff of every (device, ACL) pair between two versions of
    a network, as [(node, acl, diff)] in [Network.node_names after] order
    with empty diffs dropped.  An ACL missing on one side compares as the
    empty list — implicit deny-all. *)

val diff_witnesses : diff -> (string * Flow.t) list
(** Up to one witness per direction, labelled ["newly-permitted"] /
    ["newly-denied"]. *)

val diff_to_string : diff -> string
(** Human-readable summary with witness packets; ["no semantic change"]
    for an empty diff. *)

(** A rule that can never fire. *)
type dead = {
  rule : Acl.rule;
  subsumer : Acl.rule option;
      (** The nearest earlier rule that single-handedly subsumes it, when
          one exists — the pairwise case. *)
  coverers : int list;
      (** Sequence numbers of the earlier rules whose decided traffic
          overlaps this rule's match set (the rules that jointly kill
          it), in order. *)
  conflict : bool;
      (** True when part of the dead rule's traffic is decided with the
          opposite action by the earlier rules — an intent conflict, not
          mere redundancy. *)
  witness : Flow.t option;
      (** A packet of the dead rule's match set; for a conflict, one that
          the earlier rules decide with the opposite action. *)
}

val dead_rules : Acl.t -> dead list
(** Exact dead-rule analysis: a rule is dead iff its match set minus the
    union of all earlier rules' match sets is empty.  Strictly more
    complete than pairwise {!Acl.rule_subsumes} — [subsumer = None]
    marks the rules only a union of earlier rules covers. *)
