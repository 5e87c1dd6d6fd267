(* Order statistics and host-speed calibration.

   On a 2-vCPU x86_64 VM this benchmark was tuned on, a pure compute loop
   alternates between a fast and a slow state about 1.45x apart, in
   phases of up to ten seconds, and a fixed kernel's median time moved by
   a third between 25-second runs.  Wall times taken minutes apart are
   therefore not comparable; their ratio to a fixed kernel run next to
   them is.  Over five 25-second runs there, the quartile spread (over the
   median) of the university ticket p50 was 0.355 in wall time and 0.014
   normalized; of the fat-tree ticket p90, 0.073 and 0.017.

   So every timed unit is preceded by one run of the kernel, one more run
   follows the last unit, and a time is reported in normalized seconds:
   wall seconds x [nominal_s] / the median kernel time within [window_s]
   of the unit.  The kernel is the benchmark's own code and shares nothing
   with the program measured, so a change to the program cannot move it. *)

let now = Heimdall_obs.Clock.now_s

(* Linear interpolation between closest ranks. *)
let percentile q = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i >= Array.length a - 1 then a.(Array.length a - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = percentile 0.5

(* Allocation, hashing and pointer chasing, like the program's own work.
   Never change it: normalized times are only comparable under one
   kernel. *)
let kernel () =
  let h = Hashtbl.create 256 in
  for i = 0 to 9_999 do
    Hashtbl.replace h (string_of_int (i * 7919 mod 10007)) i
  done;
  let l = List.init 10_000 (fun i -> i * 7919 mod 10007) in
  List.length (List.sort compare l) + Hashtbl.length h

(* The kernel's time that normalized times are expressed against. *)
let nominal_s = 0.005
let window_s = 0.3

(* (midpoint, seconds) of every kernel run so far. *)
let samples = ref []

let run_kernel () =
  let t0 = now () in
  ignore (Sys.opaque_identity (kernel ()));
  now () -. t0

(* With [domains = 2] the kernel runs on two domains at once, as a
   two-domain unit does, and the sample is the harmonic mean of the two
   times: a unit whose work is shared out dynamically runs at the sum of
   the two speeds. *)
let calibrate ~domains =
  let t0 = now () in
  let d =
    if domains > 1 then
      let helper = Domain.spawn run_kernel in
      let main = run_kernel () in
      2.0 /. ((1.0 /. main) +. (1.0 /. Domain.join helper))
    else run_kernel ()
  in
  samples := ((t0 +. now ()) /. 2.0, d) :: !samples

type span = { t0 : float; t1 : float }

let timed f =
  let t0 = now () in
  let x = f () in
  (x, { t0; t1 = now () })

let wall s = Heimdall_obs.Clock.clamp (s.t1 -. s.t0)

(* Seconds measured during [s], in normalized seconds. *)
let normalize s seconds =
  let near =
    List.filter_map
      (fun (m, d) -> if m >= s.t0 -. window_s && m <= s.t1 +. window_s then Some d else None)
      !samples
  in
  match near with
  | [] -> invalid_arg "Measure.normalize: no calibration run near the span"
  | l -> seconds *. nominal_s /. median l

let kernel_median () = median (List.map snd !samples)
