open Heimdall_control
open Heimdall_verify
module Clock = Heimdall_obs.Clock

type stage = Generation | Lint | Verify | Issue of string
type gate = { stage : stage; name : string; ok : bool }
type issue_run = { issue : string; resolved : bool; denied : int; wall_s : float }

type t = {
  fleet : Fleetgen.fleet;
  domains : int;
  generate_s : float;
  lint_s : float;
  dataplane_s : float;
  check_s : float;
  dataplane_n_s : float;
  check_n_s : float;
  validation : (unit, string) result;
  findings : Heimdall_lint.Diagnostic.t list;
  report : Policy.report;
  stats_n : Engine.stats;
  issues : issue_run list;
  gates : gate list;
  peak_rss_kb : int option;
}

let lint_errors t =
  Heimdall_lint.Lint.filter ~min_severity:Heimdall_lint.Diagnostic.Error t.findings
let passed t = List.for_all (fun g -> g.ok) t.gates

(* What must be byte-identical across domain counts: the verdicts, not
   just their count. *)
let fingerprint (r : Policy.report) =
  (r.total, List.map (fun (p, reason) -> (Policy.to_string p, reason)) r.violations)

let run ?domains ?cache_dir ~issues params =
  let fleet, generate_s = Clock.elapsed (fun () -> Fleetgen.generate params) in
  let again = Fleetgen.generate params in
  let validation = Network.validate fleet.net in
  let n =
    match domains with Some n -> max 1 n | None -> max 2 (Engine.default_domains ())
  in
  let engine1 = Engine.create ~domains:1 ?cache_dir () in
  let engine_n = Engine.create ~domains:n () in
  let findings, lint_s =
    Clock.elapsed (fun () -> Heimdall_lint.Lint.check_network ~engine:engine1 fleet.net)
  in
  let verify engine =
    let dp, dp_s = Clock.elapsed (fun () -> Engine.dataplane engine fleet.net) in
    let report, check_s =
      Clock.elapsed (fun () -> Policy.check_all ~engine dp fleet.policies)
    in
    (report, dp_s, check_s)
  in
  let report, dataplane_s, check_s = verify engine1 in
  let report_n, dataplane_n_s, check_n_s = verify engine_n in
  let stats_n = Engine.stats engine_n in
  let selected =
    match (issues, fleet.issues) with
    | `All, all -> all
    | `First, first :: _ -> [ first ]
    | `First, [] | `None, _ -> []
  in
  let issue_runs =
    List.map
      (fun (issue : Heimdall_msp.Issue.t) ->
        let run, wall_s =
          Clock.elapsed (fun () ->
              Heimdall_msp.Workflow.run_heimdall ~engine:engine_n ~production:fleet.net
                ~policies:fleet.policies ~issue ())
        in
        { issue = issue.name; resolved = run.resolved; denied = run.denied; wall_s })
      selected
  in
  Engine.shutdown engine1;
  Engine.shutdown engine_n;
  let gate stage name ok = { stage; name; ok } in
  let gates =
    [
      gate Generation "deterministic regeneration (digest)"
        (Digest.equal (Network.digest fleet.net) (Network.digest again.net));
      gate Generation "deterministic regeneration (policies)"
        (List.equal Policy.equal fleet.policies again.policies);
      gate Generation "network validation" (validation = Ok ());
      gate Lint "lint clean (no error severity)"
        (not (Heimdall_lint.Lint.has_errors findings));
      gate Verify "zero policy violations" (report.violations = []);
      gate Verify
        (Printf.sprintf "verdicts identical at 1 vs %d domains" n)
        (fingerprint report = fingerprint report_n);
    ]
    @ List.map
        (fun r ->
          gate (Issue r.issue)
            (Printf.sprintf "issue %s resolved, nothing denied" r.issue)
            (r.resolved && r.denied = 0))
        issue_runs
  in
  {
    fleet;
    domains = n;
    generate_s;
    lint_s;
    dataplane_s;
    check_s;
    dataplane_n_s;
    check_n_s;
    validation;
    findings;
    report;
    stats_n;
    issues = issue_runs;
    gates;
    peak_rss_kb = Fleetgen.peak_rss_kb ();
  }
