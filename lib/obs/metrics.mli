(** The metrics registry: named counters, gauges, and log-bucketed
    histograms, each optionally carrying a {e label set}.

    A series is (name, labels); labels are canonicalised (sorted by key,
    later duplicates win) at update time, so the same label set in any
    order names the same series.  All mutators are safe to call from any
    domain (one mutex per registry) and never affect the instrumented
    computation.  Rendering is deterministic: series are sorted by name
    then label set, so two registries fed the same updates render
    byte-identically. *)

type t

val create : unit -> t

val scoped : t -> (string * string) list -> t
(** A view of the same registry that stamps the given base labels onto
    every update made through it.  Explicit [?labels] on an update
    override base labels with the same key.  Reads and rendering see the
    whole shared registry either way — scoping only affects writes. *)

(** {1 Updating} *)

val incr : t -> ?by:int -> ?labels:(string * string) list -> string -> unit
(** Add [by] (default 1) to a counter series, creating it at 0. *)

val set_gauge : t -> ?labels:(string * string) list -> string -> float -> unit

val observe : t -> ?labels:(string * string) list -> string -> float -> unit
(** Record one sample into a histogram with logarithmic (powers-of-two)
    buckets from 1 µs up; negative samples are clamped to 0. *)

val set_help : t -> string -> string -> unit
(** Register the [# HELP] text emitted for a metric family (default: the
    family name itself). *)

(** {1 Reading} *)

val counter_value : t -> ?labels:(string * string) list -> string -> int
(** With [?labels], the exact series (0 when absent).  Without, the
    {e sum} over every series of that name — which is the old unlabeled
    total when nothing is labeled, and the family aggregate when
    something is. *)

val gauge_value : t -> ?labels:(string * string) list -> string -> float option

type summary = {
  count : int;
  sum : float;
  p50 : float;  (** Bucket-upper-bound estimate of the median. *)
  p95 : float;
  max : float;  (** Exact. *)
}

val histogram_summary :
  t -> ?labels:(string * string) list -> string -> summary option

val counters : t -> (string * int) list
(** Every counter series as [(key, value)], sorted by key; the key is
    the raw name plus the rendered label set (e.g.
    [policy.checked{verdict="holds"}]). *)

(** {1 Rendering} *)

val to_prometheus : t -> string
(** Prometheus text exposition format: metric names sanitised to
    [[a-zA-Z_:][a-zA-Z0-9_:]*] (a leading digit gains a ['_'] prefix),
    label names to [[a-zA-Z_][a-zA-Z0-9_]*], label values escaped
    (backslash, double quote, newline), one [# HELP] and [# TYPE] line
    per family,
    series in deterministic order.  Counters and gauges render as plain
    series, histograms as quantile summaries ([{quantile="0.5"}],
    [{quantile="0.95"}], [{quantile="1"}] = max) plus [_sum]/[_count]. *)

val to_json : t -> Heimdall_json.Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {key:
    {count, sum, p50, p95, max}}}], keys sorted — same series keys as
    {!counters}, so the JSON page carries exactly the Prometheus
    content. *)
