(** The fleet-scale pipeline and its gates.

    Generate a seeded fleet, lint it, verify every policy on one domain
    and on N domains, then run the selected issues through the full
    Heimdall workflow.  Every check is a named gate; callers only print
    or serialise the result. *)

open Heimdall_verify

type stage = Generation | Lint | Verify | Issue of string  (** By issue name. *)
type gate = { stage : stage; name : string; ok : bool }
type issue_run = { issue : string; resolved : bool; denied : int; wall_s : float }

type t = {
  fleet : Fleetgen.fleet;
  domains : int;  (** Domain count of the N-domain engine. *)
  generate_s : float;
  lint_s : float;
  dataplane_s : float;  (** On one domain, like [check_s]. *)
  check_s : float;
  dataplane_n_s : float;
  check_n_s : float;
  validation : (unit, string) result;
  findings : Heimdall_lint.Diagnostic.t list;  (** Every lint finding. *)
  report : Policy.report;  (** The one-domain verification report. *)
  stats_n : Engine.stats;  (** The N-domain engine after verification. *)
  issues : issue_run list;  (** The selected issues, in fleet order. *)
  gates : gate list;  (** In pipeline order. *)
  peak_rss_kb : int option;  (** Process peak RSS after the run. *)
}

val run :
  ?domains:int ->
  ?cache_dir:string ->
  issues:[ `All | `First | `None ] ->
  Fleetgen.params ->
  t
(** [?domains] sizes the N-domain engine (default {!Engine.default_domains},
    at least 2); [?cache_dir] backs the one-domain engine's persistent
    dataplane cache.  [~issues] picks which of the fleet's issues run
    through the workflow, on the N-domain engine. *)

val lint_errors : t -> Heimdall_lint.Diagnostic.t list
(** The error-severity findings, the only ones that gate. *)

val passed : t -> bool
(** Every gate is ok. *)
