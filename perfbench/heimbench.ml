(* Heimdall's benchmark: one workload per process, one closed-loop
   client, driving only public entry points.

     heimbench --workload fattree-tickets|university-tickets|university-sweep
               --seed N --seconds S --trace 0|1 --pins FILE [--max-units N]
     heimbench --write-pins FILE

   With --trace 0 it measures the end-to-end metrics; with --trace 1 it
   interleaves untraced tickets and passes (for counts and the overhead
   baseline) with stage-by-stage replays of the same work (for per-layer
   times).
   Every unit's outputs are checked against the pins; the last line of
   standard output is the JSON result, and the exit code is 1 when any
   check failed. *)

open Heimdall_control
open Heimdall_verify
open Heimdall_enforcer
open Heimdall_msp
open Heimdall_scenarios

let now = Measure.now
let elapsed = Heimdall_obs.Clock.elapsed

(* ------------------------------------------------------------------ *)
(* Pins: expected outputs, one "key value" line each                   *)
(* ------------------------------------------------------------------ *)

let load_pins path =
  let tbl = Hashtbl.create 512 in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
            (if line <> "" && line.[0] <> '#' then
               match String.index_opt line ' ' with
               | Some i ->
                   Hashtbl.replace tbl (String.sub line 0 i)
                     (String.sub line (i + 1) (String.length line - i - 1))
               | None -> ());
            go ()
      in
      go ());
  tbl

(* The problems found in one unit: an empty list means it is correct. *)
let against_pins pins observed =
  List.filter_map
    (fun (key, value) ->
      match Hashtbl.find_opt pins key with
      | Some v when v = value -> None
      | Some v -> Some (Printf.sprintf "%s: got %s, pinned %s" key value v)
      | None -> Some (Printf.sprintf "%s: no pin" key))
    observed

let ticket_pin_value audit final =
  Printf.sprintf "audit=%s digest=%s" (Audit.head audit)
    (Digest.to_hex (Network.digest final))

let ticket_observed ~workload (t : Inputs.ticket) ~approved ~resolved ~denied ~audit ~final =
  let key = workload ^ "/" ^ t.key in
  let gate =
    (if approved then [] else [ key ^ ": not approved" ])
    @ (if resolved then [] else [ key ^ ": not resolved" ])
    @ (if denied = 0 then [] else [ Printf.sprintf "%s: %d denials" key denied ])
    @
    match Audit.verify audit with
    | Ok () -> []
    | Error m -> [ key ^ ": audit chain broken: " ^ m ]
  in
  (gate, [ (key, ticket_pin_value audit final) ])

let sweep_observed (summaries : Metrics.summary list) =
  List.concat_map
    (fun (s : Metrics.summary) ->
      let tech = Metrics.technique_to_string s.technique in
      ( Printf.sprintf "university-sweep/summary/%s" tech,
        Printf.sprintf "feasibility=%.12g surface=%.12g points=%d" s.feasibility_pct
          s.attack_surface_pct (List.length s.points) )
      :: List.map
           (fun (p : Metrics.point) ->
             ( Printf.sprintf "university-sweep/point/%s/%s/%s" tech p.failed.node
                 p.failed.iface,
               Printf.sprintf "feasible=%b surface=%.12g exposed=%d" p.feasible
                 p.attack_surface p.exposed_nodes ))
           s.points)
    summaries

(* ------------------------------------------------------------------ *)
(* Units of work                                                       *)
(* ------------------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int; mutable shown : int }

let tally = { attempted = 0; failed = 0; shown = 0 }

let record problems =
  tally.attempted <- tally.attempted + 1;
  if problems <> [] then begin
    tally.failed <- tally.failed + 1;
    List.iter
      (fun p ->
        if tally.shown < 20 then prerr_endline ("FAIL " ^ p);
        tally.shown <- tally.shown + 1)
      problems
  end

(* A unit's measurements outside its wall time. *)
type unit_counts = {
  alloc_mb : float;
  major : float;
  stats : Engine.stats;
}

let measured ~engine f =
  let g0 = Gc.quick_stat () in
  let x, wall = elapsed f in
  let g1 = Gc.quick_stat () in
  let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  let counts =
    {
      alloc_mb = (words g1 -. words g0) *. float_of_int (Sys.word_size / 8) /. 1048576.0;
      major = float_of_int (g1.major_collections - g0.major_collections);
      stats = Engine.stats engine;
    }
  in
  (x, wall, counts)

let ticket_unit ~workload ~pins (inputs : Inputs.tickets) (t : Inputs.ticket) =
  let engine = Engine.create ~domains:1 () in
  let run, wall, counts =
    measured ~engine (fun () ->
        Workflow.run_heimdall ~engine ~production:inputs.production
          ~policies:inputs.policies ~issue:t.issue ())
  in
  Engine.shutdown engine;
  let outcome = Option.get run.outcome in
  let gate, observed =
    ticket_observed ~workload t ~approved:outcome.approved ~resolved:run.resolved
      ~denied:run.denied ~audit:outcome.audit ~final:run.final_network
  in
  record (gate @ against_pins pins observed);
  (run, outcome, wall, counts)

let sweep_domains () = min 2 (Domain.recommended_domain_count ())

let sweep_unit ~pins ~production ~policies =
  let engine = Engine.create ~domains:(sweep_domains ()) () in
  let summaries, wall, counts =
    measured ~engine (fun () -> Metrics.sweep_all ~engine ~production ~policies ())
  in
  Engine.shutdown engine;
  record (against_pins pins (sweep_observed summaries));
  (summaries, wall, counts)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = Fattree_tickets | University_tickets | University_sweep

let workloads =
  [
    ("fattree-tickets", Fattree_tickets);
    ("university-tickets", University_tickets);
    ("university-sweep", University_sweep);
  ]

let name_of w = fst (List.find (fun (_, x) -> x = w) workloads)

type inputs = Tickets of Inputs.tickets | Sweep of Network.t * Policy.t list

let generate w ~seed =
  match w with
  | Fattree_tickets -> Tickets (Inputs.fattree ~seed)
  | University_tickets -> Tickets (Inputs.university ~seed)
  | University_sweep ->
      let net = University.build () in
      Sweep (net, University.policies net)

let domains_of = function
  | Fattree_tickets | University_tickets -> 1
  | University_sweep -> sweep_domains ()

(* Calibration runs before and after each ticket or pass.  A sweep pass
   lasts about a second, long enough for the host to change speed under
   it, and a two-domain kernel run is noisier than a one-domain one.
   With one run before each pass, the sweep's p50 and p90 spread 0.076
   and 0.185 over five 30-s runs; with three before and two after, 0.021
   and 0.038 over six.  Set-up pieces get three and two as well: a
   set-up is one sample per piece, and with one run before each piece,
   university set-ups within a run ranged from 0.23 to 0.45 s. *)
let calibrations = function
  | Fattree_tickets | University_tickets -> (1, 0)
  | University_sweep -> (3, 2)

(* Run [f] from a collected heap, so that it pays for its own garbage and
   not for the previous unit's, between [before] and [after] calibration
   runs; return its result and its span. *)
let bracketed w (before, after) f =
  let domains = domains_of w in
  Gc.full_major ();
  for _ = 1 to before do Measure.calibrate ~domains done;
  let r = Measure.timed f in
  for _ = 1 to after do Measure.calibrate ~domains done;
  r

(* Set-up: input generation plus one untimed, checked pass over the
   distinct units, so that lazily-built state exists before timing.
   Returns the inputs and the set-up's normalized seconds: the sum of
   its pieces, each normalized by the calibration runs around it. *)
let setup w ~seed ~pins =
  let piece f = bracketed w (3, 2) f in
  let inputs, generation = piece (fun () -> generate w ~seed) in
  let warm_up =
    match inputs with
    | Tickets t ->
        List.map
          (fun u -> snd (piece (fun () -> ticket_unit ~workload:(name_of w) ~pins t u)))
          t.distinct
    | Sweep (production, policies) ->
        [ snd (piece (fun () -> sweep_unit ~pins ~production ~policies)) ]
  in
  Measure.calibrate ~domains:(domains_of w);
  ( inputs,
    List.fold_left
      (fun acc span -> acc +. Measure.normalize span (Measure.wall span))
      0.0 (generation :: warm_up) )

(* Run [f] on the units of [cycle] in order, cycle after cycle, until the
   deadline has passed at the end of a cycle (so each run holds whole
   cycles and the same mix of units) or [max_units] have run. *)
let closed_loop ~domains ~seconds ~max_units cycle f =
  let deadline = now () +. seconds in
  let count = ref 0 in
  let rec go () =
    let stop =
      List.exists
        (fun u ->
          if !count >= max_units then true
          else begin
            f u;
            incr count;
            false
          end)
        cycle
    in
    if (not stop) && now () < deadline then go ()
  in
  go ();
  Measure.calibrate ~domains

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let emit metrics =
  let correct = tally.failed = 0 && tally.attempted > 0 in
  Printf.printf "fail_ratio %.6f (%d failed of %d units)\n"
    (if tally.attempted = 0 then 1.0
     else float_of_int tally.failed /. float_of_int tally.attempted)
    tally.failed tally.attempted;
  List.iter
    (fun (name, v, unit) -> Printf.printf "metric %-32s %14.4f %s\n" name v unit)
    metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct tally.attempted tally.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
          metrics));
  if correct then 0 else 1

let peak_rss_mb () =
  match Fleetgen.peak_rss_kb () with Some kb -> float_of_int kb /. 1024.0 | None -> 0.0

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end metrics                                       *)
(* ------------------------------------------------------------------ *)

let setups = 5

let end_to_end w ~seed ~seconds ~max_units ~pins =
  let setups = List.init setups (fun _ -> setup w ~seed ~pins) in
  let inputs = fst (List.hd (List.rev setups)) in
  (* A timed unit is a group of one ticket per kind, or one sweep pass;
     [parts] holds each ticket or pass on its own, for the per-kind
     console lines. *)
  let units = ref [] and parts = ref [] in
  let domains = domains_of w in
  (match inputs with
  | Tickets t ->
      Inputs.print_tickets (name_of w) t;
      closed_loop ~domains ~seconds ~max_units t.cycle (fun group ->
          let walls, span =
            Measure.timed (fun () ->
                List.map
                  (fun (u : Inputs.ticket) ->
                    let (_, _, wall, _), span =
                      bracketed w (calibrations w) (fun () ->
                          ticket_unit ~workload:(name_of w) ~pins t u)
                    in
                    parts := (u.issue.name, span, wall) :: !parts;
                    wall)
                  group)
          in
          units := ("group", span, List.fold_left ( +. ) 0.0 walls) :: !units)
  | Sweep (production, policies) ->
      Printf.printf "university-sweep: %d failure candidates x 3 techniques, %d domains\n"
        (List.length (Metrics.failure_candidates production))
        (sweep_domains ());
      closed_loop ~domains ~seconds ~max_units [ () ] (fun () ->
          let (_, wall, _), span =
            bracketed w (calibrations w) (fun () -> sweep_unit ~pins ~production ~policies)
          in
          units := ("pass", span, wall) :: !units;
          parts := !units));
  (* A unit's span (which also covers its checks) selects the calibration
     runs around it; its wall time is the program's calls alone. *)
  let ms f l = List.map (fun (_, span, wall) -> 1000.0 *. f span wall) l in
  let normalized = ms Measure.normalize !units in
  Printf.printf "set-ups (normalized s): %s\n"
    (String.concat " " (List.map (fun (_, s) -> Printf.sprintf "%.3f" s) setups));
  Printf.printf "calibration kernel: median %.3f ms over %d runs (nominal %.3f ms)\n"
    (1000.0 *. Measure.kernel_median ())
    (List.length !Measure.samples) (1000.0 *. Measure.nominal_s);
  Printf.printf "units %d, %d beyond p90; per kind, wall and normalized:\n"
    (List.length !units) (List.length !units / 10);
  List.iter
    (fun kind ->
      let these = List.filter (fun (k, _, _) -> k = kind) !parts in
      let wall = ms (fun _ s -> s) these and norm = ms Measure.normalize these in
      Printf.printf
        "  %-10s n=%4d  wall p50 %9.2f p90 %9.2f ms  normalized p50 %9.2f p90 %9.2f ms\n"
        kind (List.length these) (Measure.median wall) (Measure.percentile 0.9 wall)
        (Measure.median norm) (Measure.percentile 0.9 norm))
    (List.sort_uniq compare (List.map (fun (k, _, _) -> k) !parts));
  emit
    [
      ("p50_ms", Measure.median normalized, "ms");
      ("p90_ms", Measure.percentile 0.9 normalized, "ms");
      ("setup_s", Measure.median (List.map snd setups), "s");
      ("peak_rss_mb", peak_rss_mb (), "MB");
    ]

(* ------------------------------------------------------------------ *)
(* --trace 1: per-layer metrics                                        *)
(* ------------------------------------------------------------------ *)

let time_metrics =
  [
    "control.dataplane"; "control.ospf"; "control.l2"; "control.recompute"; "net.apply";
    "enforcer.schedule"; "twin.slice"; "msp.privgen"; "twin.build"; "twin.session";
    "verify.check_all"; "verify.paths"; "verify.incident"; "verify.surface"; "verify.impact";
    "verify.probe"; "lint.delta"; "sem.preflight"; "sem.precheck"; "enforcer.verify";
    "enforcer.apply"; "enforcer.audit"; "sweep.prepare"; "sweep.evaluate";
  ]

(* One closed-loop iteration of the traced run: an untraced unit, its
   traced replay and the side measurements, all within [span].  [rows]
   hold stage seconds per ticket or per failure point, [counts] the
   count metrics per unit. *)
type group = {
  span : Measure.span;
  rows : (string * float) list list;
  counts : (string * float) list list;
  untraced : float;
  traced : float;
  unattributed_pct : float;
}

let per_layer_metrics groups =
  let factor g = Measure.normalize g.span 1.0 in
  let times name =
    List.concat_map
      (fun g ->
        List.filter_map
          (fun row -> Option.map (( *. ) (factor g)) (List.assoc_opt name row))
          g.rows)
      groups
  in
  let counts name =
    List.concat_map (fun g -> List.filter_map (List.assoc_opt name) g.counts) groups
  in
  let med = function [] -> 0.0 | l -> Measure.median l in
  let count name unit = (name, med (counts name), unit) in
  let untraced = Measure.median (List.map (fun g -> g.untraced *. factor g) groups) in
  let traced = Measure.median (List.map (fun g -> g.traced *. factor g) groups) in
  let overhead = if untraced > 0.0 then 100.0 *. (traced -. untraced) /. untraced else 0.0 in
  List.map (fun n -> (n ^ "_ms", 1000.0 *. med (times n), "ms")) time_metrics
  @ [
      count "control.dataplanes_built" "count";
      count "control.dataplanes_incremental" "count";
      count "enforcer.plan_steps" "count";
      count "enforcer.audit_records" "count";
      count "twin.slice_nodes" "count";
      count "verify.traces_run" "count";
      count "verify.trace_hit_ratio" "ratio";
      count "gc.alloc_mb" "MB";
      count "gc.major_collections" "count";
      ( "trace.unattributed_pct",
        Measure.median (List.map (fun g -> g.unattributed_pct) groups),
        "%" );
      ("trace.overhead_pct", overhead, "%");
    ]

let engine_counts (c : unit_counts) =
  [
    ("control.dataplanes_built", float_of_int c.stats.dataplanes_built);
    ("control.dataplanes_incremental", float_of_int c.stats.dataplanes_incremental);
    ("verify.traces_run", float_of_int c.stats.traces_run);
    ("verify.trace_hit_ratio", Engine.trace_hit_rate c.stats);
    ("gc.alloc_mb", c.alloc_mb);
    ("gc.major_collections", c.major);
  ]

let traced_ticket ~workload ~pins (inputs : Inputs.tickets) (t : Inputs.ticket) =
  let run, outcome, wall, counts = ticket_unit ~workload ~pins inputs t in
  let plan_steps =
    match outcome.plan with Some p -> List.length p.Scheduler.steps | None -> 0
  in
  let engine = Engine.create ~domains:1 () in
  let st = Replay.stages true in
  let r, traced =
    elapsed (fun () ->
        Replay.ticket st ~engine ~production:inputs.production ~policies:inputs.policies
          t.issue)
  in
  Engine.shutdown engine;
  (* Fidelity: the replay must land where run_heimdall landed. *)
  let key = workload ^ "/" ^ t.key in
  let gate, observed =
    ticket_observed ~workload t ~approved:r.approved ~resolved:r.resolved ~denied:r.denied
      ~audit:r.audit ~final:r.final
  in
  let diverged =
    if ticket_pin_value r.audit r.final = ticket_pin_value outcome.audit run.final_network
    then []
    else [ key ^ ": traced replay diverged from run_heimdall" ]
  in
  record (gate @ diverged @ against_pins pins observed);
  (* Side measurements, outside the unit's wall time. *)
  let parts = Replay.control_parts r.broken in
  let base, full = elapsed (fun () -> Dataplane.compute r.broken) in
  let (_ : Dataplane.t), recompute = elapsed (fun () -> Dataplane.recompute ~base r.final) in
  let (_ : Policy.report), check_all =
    elapsed (fun () -> Policy.check_all base inputs.policies)
  in
  ( [
      (("control.dataplane", full) :: ("control.recompute", recompute)
       :: ("verify.check_all", check_all) :: parts)
      @ st.spent;
    ],
    [
      ("enforcer.plan_steps", float_of_int plan_steps)
      :: ("enforcer.audit_records", float_of_int (Audit.length outcome.audit))
      :: ("twin.slice_nodes", float_of_int r.slice_nodes)
      :: engine_counts counts;
    ],
    wall,
    traced,
    100.0 *. (traced -. Replay.total st) /. traced )

let traced_sweep ~pins ~first ~production ~policies =
  let _, _, counts = sweep_unit ~pins ~production ~policies in
  (* sweep_all's own split of the untraced pass into its phases. *)
  let phase prefix =
    List.fold_left
      (fun acc (name, s) -> if String.starts_with ~prefix name then acc +. s else acc)
      0.0 counts.stats.phase_seconds
  in
  let one_domain f =
    let engine = Engine.create ~domains:1 () in
    Fun.protect ~finally:(fun () -> Engine.shutdown engine) (fun () -> f engine)
  in
  (* The overhead baseline is sweep_all itself on one domain, as the
     replay runs; the two take turns going first. *)
  let untraced () =
    let summaries, wall =
      elapsed (fun () ->
          one_domain (fun engine -> Metrics.sweep_all ~engine ~production ~policies ()))
    in
    record (against_pins pins (sweep_observed summaries));
    wall
  in
  let untraced_first = if first then untraced () else 0.0 in
  let st = Replay.stages true in
  let (summaries, points), traced =
    elapsed (fun () -> one_domain (fun engine -> Replay.sweep st ~engine ~production ~policies))
  in
  let untraced = if first then untraced_first else untraced () in
  (* Fidelity: the replay must give every pinned summary and verdict. *)
  record
    (List.map
       (fun p -> "traced replay diverged: " ^ p)
       (against_pins pins (sweep_observed summaries)));
  let in_points =
    List.fold_left (fun acc (p : Replay.point) -> acc +. Replay.total p.point_stages) 0.0 points
  in
  ( [ ("sweep.prepare", phase "sweep/prepare"); ("sweep.evaluate", phase "sweep/evaluate-") ]
    :: (Replay.control_parts production @ st.spent)
    :: List.map (fun (p : Replay.point) -> p.point_stages.spent) points,
    engine_counts counts
    :: List.map
         (fun (p : Replay.point) -> [ ("twin.slice_nodes", float_of_int p.slice_size) ])
         points,
    untraced,
    traced,
    100.0 *. (traced -. Replay.total st -. in_points) /. traced )

let per_layer w ~seed ~seconds ~max_units ~pins =
  let inputs, _ = setup w ~seed ~pins in
  let groups = ref [] in
  let group f =
    let (rows, counts, untraced, traced, unattributed_pct), span =
      bracketed w (calibrations w) f
    in
    groups := { span; rows; counts; untraced; traced; unattributed_pct } :: !groups
  in
  let domains = domains_of w in
  (match inputs with
  | Tickets t ->
      Inputs.print_tickets (name_of w) t;
      closed_loop ~domains ~seconds ~max_units t.cycle
        (List.iter (fun u -> group (fun () -> traced_ticket ~workload:(name_of w) ~pins t u)))
  | Sweep (production, policies) ->
      closed_loop ~domains ~seconds ~max_units [ () ] (fun () ->
          let first = List.length !groups mod 2 = 0 in
          group (fun () -> traced_sweep ~pins ~first ~production ~policies)));
  Printf.printf "traced units %d\n" (List.length !groups);
  emit (per_layer_metrics !groups)

(* ------------------------------------------------------------------ *)
(* --write-pins                                                        *)
(* ------------------------------------------------------------------ *)

let write_pins path =
  let lines = ref [] in
  let add (k, v) = lines := (k ^ " " ^ v) :: !lines in
  List.iter
    (fun (name, w) ->
      match generate w ~seed:1 with
      | Tickets t ->
          List.iter
            (fun (u : Inputs.ticket) ->
              let run =
                Workflow.run_heimdall ~engine:(Engine.create ~domains:1 ())
                  ~production:t.production ~policies:t.policies ~issue:u.issue ()
              in
              let outcome = Option.get run.outcome in
              add (name ^ "/" ^ u.key, ticket_pin_value outcome.audit run.final_network))
            t.distinct
      | Sweep (production, policies) ->
          List.iter add (sweep_observed (Metrics.sweep_all ~production ~policies ())))
    workloads;
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc
        "# Expected outputs of every benchmark unit: audit head and final network\n\
         # digest per ticket, summaries and point verdicts per sweep technique.\n\
         # Regenerate with `heimbench --write-pins FILE` only when a change to the\n\
         # program is meant to alter them.\n";
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) (List.sort compare !lines))

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref nan and trace = ref 0 in
  let pins = ref "perfbench/pins.txt" and max_units = ref max_int and write = ref "" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        " fattree-tickets | university-tickets | university-sweep" );
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measured time (required)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--pins", Arg.Set_string pins, " expected outputs (default perfbench/pins.txt)");
      ("--max-units", Arg.Set_int max_units, " stop after this many timed units");
      ("--write-pins", Arg.Set_string write, " write the expected outputs to a file and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "heimbench --workload W --seed N --seconds S --trace 0|1";
  if !write <> "" then write_pins !write
  else
    match List.assoc_opt !workload workloads with
    | None ->
        prerr_endline ("heimbench: unknown workload " ^ !workload);
        exit 2
    | Some _ when Float.is_nan !seconds ->
        prerr_endline "heimbench: --seconds is required";
        exit 2
    | Some w ->
        let pins = load_pins !pins in
        Printf.printf "workload %s seed %d seconds %g trace %d\n%!" !workload !seed !seconds
          !trace;
        let run = if !trace = 1 then per_layer else end_to_end in
        exit (run w ~seed:!seed ~seconds:!seconds ~max_units:!max_units ~pins)
