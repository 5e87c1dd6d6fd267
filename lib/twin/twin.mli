(** Twin-network construction: slice the production network for the task,
    scrub secrets, and wrap the result in an emulation layer with a
    monitored session on top. *)

open Heimdall_control
open Heimdall_privilege

val build :
  ?strategy:Slicer.strategy ->
  ?env_stubs:bool ->
  ?obs:Heimdall_obs.Obs.t ->
  production:Network.t ->
  endpoints:string list ->
  unit ->
  Emulation.t
(** Create the twin's emulation layer for a ticket affecting [endpoints].
    Defaults to the task-driven slice.  All secrets are scrubbed; the
    emulation layer re-checks this at construction.

    With [env_stubs] (default false), every boundary link keeps carrier:
    a synthetic ["env-<peer>"] router owns the outside interface's address
    so next hops stay pingable, without exposing the outside device's
    config, secrets, or onward topology (the paper's Challenge 2 fidelity
    refinement). *)

val of_slice :
  ?env_stubs:bool ->
  ?obs:Heimdall_obs.Obs.t ->
  production:Network.t ->
  string list ->
  Emulation.t
(** The twin's emulation layer over an already computed slice (see
    {!slice_nodes}): [build] is [slice_nodes] followed by [of_slice], so a
    caller that holds the ticket's slice need not compute it again. *)

val open_session :
  ?technician:string -> ?obs:Heimdall_obs.Obs.t -> privilege:Privilege.t ->
  Emulation.t -> Session.t
(** Open a monitored technician session on a twin.  With [?obs] the
    reference monitor records privilege denials as structured events
    and feeds the session command counters. *)

val slice_nodes :
  ?strategy:Slicer.strategy -> ?obs:Heimdall_obs.Obs.t ->
  production:Network.t -> endpoints:string list -> unit ->
  string list
(** The node set the twin would contain (exposed for metrics).  With
    [?obs], a [twin.slice] span plus a [twin.slice_nodes] gauge. *)
