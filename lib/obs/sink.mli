(** Pluggable line sinks for JSONL emission.

    The tracer (and anything else that produces one-JSON-value-per-line
    streams) writes through a sink, so the CLI can point traces at a
    file while tests capture them in memory — without the emitters
    knowing the difference. *)

type t

val write : t -> string -> unit
(** Emit one line (the newline is appended by the sink). *)

val close : t -> unit
(** Flush and release the sink.  Idempotent. *)

val null : t
(** Discards everything. *)

val memory : unit -> t * (unit -> string list)
(** An in-memory sink plus a reader returning the lines written so far
    (oldest first) — the test fixture. *)

val file : string -> t
(** Appends lines to [path], creating the file (truncated) on open.
    @raise Sys_error if the file cannot be opened. *)
