(* Golden pins: digests of the non-timing output of every paper artifact,
   of the FIBs of both evaluation networks and three generated fleets, and
   of the CLI reports whose bytes refactors must not move.  A pin that
   changes means a verdict, a route or a rendered report changed; update
   it only together with the change that is meant to move it. *)

open Heimdall_control
open Heimdall_scenarios

let digest s = Digest.to_hex (Digest.string s)
let pin name expected actual = Alcotest.(check string) name expected (digest actual)

(* ---------------- Paper artifacts ---------------- *)

let fig7_fingerprint cells =
  String.concat "\n"
    (List.map
       (fun (c : Experiments.fig7_cell) ->
         Printf.sprintf "%s/%s resolved=%b steps=%s" c.issue c.workflow c.resolved
           (String.concat "," (List.map fst c.steps)))
       cells)

let sweep_fingerprint summaries =
  Experiments.render_sweep ~title:"pin" summaries
  ^ String.concat "\n"
      (List.concat_map
         (fun (s : Metrics.summary) ->
           List.map
             (fun (p : Metrics.point) ->
               Printf.sprintf "%s %s feasible=%b surface=%.6f exposed=%d"
                 (Metrics.technique_to_string s.technique)
                 (Heimdall_net.Topology.endpoint_to_string p.failed)
                 p.feasible p.attack_surface p.exposed_nodes)
             s.points)
         summaries)

let test_artifacts () =
  pin "table1" "43218a6196cbfee8fbd6fb67054f6a29" (Experiments.render_table1 (Experiments.table1 ()));
  pin "fig7" "a29fc420f1978116d86982a5c311bac2" (fig7_fingerprint (Experiments.fig7 ()));
  pin "fig8" "7d12255f447f90d90575a1603448edc6" (sweep_fingerprint (Experiments.fig8 ()));
  pin "fig9" "b03da30af6c1c5a962b4cdc521d9e915" (sweep_fingerprint (Experiments.fig9 ()));
  (let a = Experiments.ablation_verify () in
   pin "ablation-verify" "f56950c6f9bec0fe1e895d74c51e476b"
     (Printf.sprintf "policies=%d actions=%d" a.policies_checked a.actions));
  pin "ablation-slicer" "c099b790a79e0e1ec5590b760581f928"
    (Experiments.render_ablation_slicer (Experiments.ablation_slicer ()));
  (let a = Experiments.ablation_audit () in
   pin "ablation-audit" "6d79ba4a3f7a34150ab4c2600e8a406a"
     (Printf.sprintf "records=%d tamper=%b" a.records a.tamper_detected));
  pin "containment" "e60f03556a5f664a67f719c30cedbb05"
    (Experiments.render_containment (Experiments.attack_containment ()))

(* ---------------- FIBs ---------------- *)

let fib_fingerprint net =
  let dp = Dataplane.compute net in
  String.concat "\n"
    (List.concat_map
       (fun node ->
         node :: List.map Fib.route_to_string (Fib.routes (Dataplane.fib node dp)))
       (Network.node_names net))

let test_fibs () =
  List.iter
    (fun (name, expected) ->
      let sc = Option.get (Experiments.scenario_of_name name) in
      pin ("fib " ^ name) expected (fib_fingerprint sc.Experiments.net))
    [
      ("enterprise", "eab668f13857f6923ad37a0647fc592b");
      ("university", "948229a047fd3c13dc67e5b1fee9db49");
      ("fleet:fat-tree:k=4", "b3850b7b33cb2d52e616a6776b8b18ee");
      ("fleet:leaf-spine:spines=4:leaves=8:seed=7", "002e48c513fa7fac3e679970db16b6dd");
      ("fleet:multi-campus:campuses=3:buildings=4", "8f39c912d297ec533a5d5c53e5296e96");
    ]

(* ---------------- CLI reports ---------------- *)

let cli = Filename.concat ".." (Filename.concat "bin" "heimdall_cli.exe")

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* Wall times, peak RSS and the host-dependent domain count are the only
   fields that may differ between runs; mask them before digesting. *)
let mask s =
  s
  |> Str.global_replace (Str.regexp "1 vs [0-9]+ domains") "1 vs N domains"
  |> Str.global_replace (Str.regexp "[0-9]+\\.[0-9]+") "#"

let run_cli args =
  let out = Filename.temp_file "heimdall-golden" ".out" in
  let err = Filename.temp_file "heimdall-golden" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote cli) args
         (Filename.quote out) (Filename.quote err))
  in
  let o = read_file out and e = read_file err in
  Sys.remove out;
  Sys.remove err;
  Printf.sprintf "exit %d\n--- stdout\n%s--- stderr\n%s" code (mask o) (mask e)

let test_cli () =
  List.iter
    (fun (args, expected) -> pin args expected (run_cli args))
    [
      ("analyze enterprise --plan", "69f9e8706c002efdaed9ce6235c154ce");
      ("analyze university --plan", "310c79d14b6ddd24e33d8aa21dac2fca");
      ("analyze enterprise --seed-defect", "0a1f56377da9a30a5d309aa9496f34b2");
      ("lint university", "753ac2e28e4201b70985e98206aeb4ef");
      ("policy fleet:fat-tree:k=4", "661fa468adb7af3427173d96b9d6e862");
      ("privilege enterprise vlan", "ec292f2a69c1dc727c5fae8d72cc9e66");
      ("chaos enterprise --seed 42", "aee16dd2f50b9cf05d4451818021622b");
      ("scale --shape fat-tree -k 4 --seed 42", "9bd4c8d3974afbf30b02d6843971ebfb");
      ("scale --spec leaf-spine:spines=4:leaves=8:seed=7 --no-issues", "b4e1af0b524d19a1dcd685aefee2b7d7");
    ]

let suite =
  [
    Alcotest.test_case "paper artifacts" `Quick test_artifacts;
    Alcotest.test_case "FIBs" `Quick test_fibs;
    Alcotest.test_case "CLI reports" `Quick test_cli;
  ]
