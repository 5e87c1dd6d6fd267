(** The POL lint family: exact static analysis over a compiled policy
    tree.  Registered in {!Heimdall_lint.Lint.rules}; the analyzers live
    here because they need the tree compiler.

    - POL001 (error): a descendant [allow] contributes traffic an
      ancestor's [deny!] invariant unconditionally denies — the allow is
      silently crushed.  Witnessed.
    - POL002 (warning): a rule's effective set is empty — earlier rules
      in its node, its descendants, or earlier siblings of an ancestor
      already decide all its traffic (exact, via the compiled sets).
    - POL003 (warning): a node's scope compiles to the empty packet set
      under its ancestors' scopes — the subtree is unreachable.
    - POL004 (error/warning/info): refinement against a flat
      {!Heimdall_verify.Policy} spec.  Errors when the tree verdict
      contradicts a policy's intent (witness: the policy's flow);
      warnings when agreement is only by default-deny or a waypoint
      intent is permitted without the waypoint requirement; one info per
      leaf scope no flat policy probes (witnessed).
    - POL005 (warning): a ticket's {!Heimdall_sem.Plan_sem} delta
      intersects a leaf scope whose declared owners the ticket's
      privilege spec cannot write — the plan can flip tree verdicts in a
      segment its grant does not cover.  Conservative [full] deltas
      (plans the static analysis cannot localise) are skipped: they
      would flag every leaf indiscriminately.
    - POL006 (warning): removing a subtree leaves the compiled permit,
      decided and require sets unchanged — the subtree is redundant.

    All fan-out goes through {!Heimdall_verify.Engine.map} when an
    engine is given, and results are sorted with
    {!Heimdall_lint.Diagnostic.compare}: reports are byte-identical at
    any domain count. *)

open Heimdall_control
open Heimdall_lint
open Heimdall_verify

val check :
  ?engine:Engine.t ->
  ?obs:Heimdall_obs.Obs.t ->
  ?policies:Policy.t list ->
  ?tickets:Plan_lint.ticket list ->
  ?network:Network.t ->
  Compile.compiled ->
  Diagnostic.t list
(** All POL findings, canonically ordered.  [policies] enables POL004,
    [tickets] POL005 ([network] tightens its plan deltas).  Diagnostics
    carry the node path as [device] and the offending rule or policy id
    as [obj]. *)

(** {1 Seeded defects} — the CLI/CI self-tests. *)

val seed_pol001 : Poltree.t -> (Poltree.t, string) result
(** Plant a root-level [deny!] copying the selector of the first
    descendant [allow] rule: POL001 must fire with an exact witness. *)

val seed_pol004 : Poltree.t -> (Poltree.t, string) result
(** Flip the first descendant [allow] rule to [deny]: any flat spec the
    tree refined must now disagree (POL004) with a witness flow. *)

val seed_acl004 :
  Heimdall_control.Network.t ->
  (Heimdall_control.Network.t * string * string, string) result
(** Append to the first ACL of the network a deterministic union-shadow
    defect: two /17 permits whose union exactly covers a later /16 deny.
    Only the packet-set algebra (ACL004) can see it.  Returns the network
    with the defect, the device and the ACL name. *)
