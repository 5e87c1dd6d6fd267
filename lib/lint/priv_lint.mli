(** Privilege-spec analyzers over {!Heimdall_privilege.Privilege}: the
    SafeTree-style pass that inspects the policy artifact itself rather
    than its runtime effect.

    Rule codes:
    - [PRV001]: a statement is unreachable — an earlier statement
      subsumes its entire action-pattern × resource set, so under
      first-match-wins it can never decide a request.  An {e error} when
      the two statements have opposite effects (a dead [deny] is a
      silent security hole); a {e warning} when they agree.
    - [PRV002] (warning): a statement grants on a resource that names no
      device (or no interface of a named device) in the target network —
      usually a typo that silently grants nothing.
    - [PRV003] (warning): an over-broad grant — [allow * on *] (or an
      action/resource pattern pair that covers the whole catalog on
      every device), defeating least privilege by construction.
    - [PRV004] (warning): a grant strictly exceeds the privilege a
      ticket's changes actually exercised — the semantic over-grant
      analysis ({!Heimdall_sem.Priv_sem}). *)

open Heimdall_control
open Heimdall_privilege

val check : ?network:Network.t -> Privilege.t -> Diagnostic.t list
(** All findings for one spec, canonically ordered.  Statement positions
    (1-based) are reported as the diagnostic line; [network] enables the
    PRV002 existence checks. *)

val check_usage :
  ?label:string ->
  network:Network.t ->
  spec:Privilege.t ->
  changes:Heimdall_config.Change.t list ->
  unit ->
  Diagnostic.t list
(** PRV004 findings: one per allow-predicate of [spec] whose mutating
    grants over [network] strictly exceed what [changes] exercised.
    [label] is recorded as the device field (e.g. the ticket name). *)
