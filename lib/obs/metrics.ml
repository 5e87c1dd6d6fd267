let bucket_count = 64
let bucket_base = 1e-6

(* Bucket i holds samples in (base·2^(i-1), base·2^i]; bucket 0 holds
   everything at or below [bucket_base]. *)
let bucket_of v =
  if v <= bucket_base then 0
  else
    let i = int_of_float (Float.ceil (Float.log2 (v /. bucket_base))) in
    min (bucket_count - 1) (max 0 i)

let bucket_upper i = bucket_base *. Float.pow 2.0 (float_of_int i)

type hist = {
  mutable count : int;
  mutable sum : float;
  mutable max_v : float;
  buckets : int array;
}

(* A series is a metric name plus a canonical (sorted, deduplicated)
   label set.  Two updates with the same labels in any order hit the
   same series. *)
type series = { sname : string; labels : (string * string) list }

type registry = {
  lock : Mutex.t;
  cnts : (series, int ref) Hashtbl.t;
  gauges : (series, float ref) Hashtbl.t;
  hists : (series, hist) Hashtbl.t;
  helps : (string, string) Hashtbl.t;  (* metric name -> # HELP text *)
}

(* [t] is a view onto a shared registry: {!scoped} returns a new view
   with extra base labels but the same underlying tables, so a scoped
   registry renders into the same exposition page. *)
type t = { reg : registry; base : (string * string) list }

let create () =
  {
    reg =
      {
        lock = Mutex.create ();
        cnts = Hashtbl.create 16;
        gauges = Hashtbl.create 16;
        hists = Hashtbl.create 16;
        helps = Hashtbl.create 8;
      };
    base = [];
  }

(* Sort by key; on duplicate keys the later binding wins (so explicit
   labels override base labels). *)
let canon labels =
  let sorted =
    List.stable_sort (fun (a, _) (b, _) -> String.compare a b) labels
  in
  let rec dedup = function
    | (k, _) :: ((k', _) :: _ as rest) when k = k' -> dedup rest
    | kv :: rest -> kv :: dedup rest
    | [] -> []
  in
  dedup sorted

let scoped t labels = { t with base = canon (t.base @ labels) }
let series_of t name labels =
  match (t.base, labels) with
  | [], [] -> { sname = name; labels = [] }
  | base, labels -> { sname = name; labels = canon (base @ labels) }

let locked t f =
  Mutex.lock t.reg.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.reg.lock) f

let set_help t name text =
  locked t (fun () -> Hashtbl.replace t.reg.helps name text)

let incr t ?(by = 1) ?(labels = []) name =
  let s = series_of t name labels in
  locked t (fun () ->
      match Hashtbl.find_opt t.reg.cnts s with
      | Some r -> r := !r + by
      | None -> Hashtbl.replace t.reg.cnts s (ref by))

let set_gauge t ?(labels = []) name v =
  let s = series_of t name labels in
  locked t (fun () ->
      match Hashtbl.find_opt t.reg.gauges s with
      | Some r -> r := v
      | None -> Hashtbl.replace t.reg.gauges s (ref v))

let observe t ?(labels = []) name v =
  let v = Float.max 0.0 v in
  let s = series_of t name labels in
  locked t (fun () ->
      let h =
        match Hashtbl.find_opt t.reg.hists s with
        | Some h -> h
        | None ->
            let h =
              { count = 0; sum = 0.0; max_v = 0.0; buckets = Array.make bucket_count 0 }
            in
            Hashtbl.replace t.reg.hists s h;
            h
      in
      h.count <- h.count + 1;
      h.sum <- h.sum +. v;
      h.max_v <- Float.max h.max_v v;
      let i = bucket_of v in
      h.buckets.(i) <- h.buckets.(i) + 1)

(* Without [?labels], a counter read sums every series of that name —
   so a caller that never labels sees exactly the old totals, and a
   labeled family still has one meaningful aggregate. *)
let counter_value t ?labels name =
  locked t (fun () ->
      match labels with
      | Some labels -> (
          match Hashtbl.find_opt t.reg.cnts (series_of t name labels) with
          | Some r -> !r
          | None -> 0)
      | None ->
          Hashtbl.fold
            (fun s r acc -> if s.sname = name then acc + !r else acc)
            t.reg.cnts 0)

let gauge_value t ?(labels = []) name =
  locked t (fun () ->
      Option.map ( ! ) (Hashtbl.find_opt t.reg.gauges (series_of t name labels)))

type summary = { count : int; sum : float; p50 : float; p95 : float; max : float }

let quantile (h : hist) q =
  if h.count = 0 then 0.0
  else begin
    let target = int_of_float (Float.ceil (q *. float_of_int h.count)) in
    let target = max 1 target in
    let rec go i seen =
      if i >= bucket_count then h.max_v
      else
        let seen = seen + h.buckets.(i) in
        if seen >= target then Float.min (bucket_upper i) h.max_v else go (i + 1) seen
    in
    go 0 0
  end

let summary_of (h : hist) =
  { count = h.count; sum = h.sum; p50 = quantile h 0.5; p95 = quantile h 0.95; max = h.max_v }

let histogram_summary t ?(labels = []) name =
  locked t (fun () ->
      Option.map summary_of (Hashtbl.find_opt t.reg.hists (series_of t name labels)))

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(* Prometheus metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*. *)
let sanitize name =
  let mapped =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
      name
  in
  if mapped = "" then "_"
  else
    match mapped.[0] with '0' .. '9' -> "_" ^ mapped | _ -> mapped

(* Label names must match [a-zA-Z_][a-zA-Z0-9_]* (no colons). *)
let sanitize_label name =
  let mapped =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
      name
  in
  if mapped = "" then "_"
  else
    match mapped.[0] with '0' .. '9' -> "_" ^ mapped | _ -> mapped

(* Label values: escape backslash, double quote and newline, per the
   exposition format. *)
let escape_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

(* HELP text: escape backslash and newline (no quote escaping). *)
let escape_help v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels ?(extra = []) labels =
  match labels @ extra with
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" (sanitize_label k) (escape_label_value v))
             labels)
      ^ "}"

(* The stable, human-readable series key used in JSON and {!counters}:
   the raw name plus the rendered label set. *)
let series_key s = s.sname ^ render_labels s.labels

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare (series_key a) (series_key b))

(* Group sorted series into families by metric name, preserving order. *)
let families bindings =
  List.fold_left
    (fun acc ((s, _) as b) ->
      match acc with
      | (name, group) :: rest when name = s.sname -> (name, b :: group) :: rest
      | _ -> (s.sname, [ b ]) :: acc)
    [] bindings
  |> List.rev_map (fun (name, group) -> (name, List.rev group))

let counters t =
  locked t (fun () ->
      List.map (fun (s, r) -> (series_key s, !r)) (sorted_bindings t.reg.cnts))

let to_prometheus t =
  locked t (fun () ->
      let buf = Buffer.create 512 in
      let header name kind =
        let n = sanitize name in
        let help =
          match Hashtbl.find_opt t.reg.helps name with
          | Some h -> escape_help h
          | None -> escape_help name
        in
        Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" n help);
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" n kind);
        n
      in
      List.iter
        (fun (name, group) ->
          let n = header name "counter" in
          List.iter
            (fun (s, r) ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %d\n" n (render_labels s.labels) !r))
            group)
        (families (sorted_bindings t.reg.cnts));
      List.iter
        (fun (name, group) ->
          let n = header name "gauge" in
          List.iter
            (fun (s, r) ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %g\n" n (render_labels s.labels) !r))
            group)
        (families (sorted_bindings t.reg.gauges));
      List.iter
        (fun (name, group) ->
          let n = header name "summary" in
          List.iter
            (fun (s, h) ->
              let sm = summary_of h in
              let series q =
                render_labels ~extra:[ ("quantile", q) ] s.labels
              in
              Buffer.add_string buf
                (Printf.sprintf
                   "%s%s %g\n%s%s %g\n%s%s %g\n%s_sum%s %g\n%s_count%s %d\n" n
                   (series "0.5") sm.p50 n (series "0.95") sm.p95 n (series "1")
                   sm.max n
                   (render_labels s.labels)
                   sm.sum n
                   (render_labels s.labels)
                   sm.count))
            group)
        (families (sorted_bindings t.reg.hists));
      Buffer.contents buf)

module Json = Heimdall_json.Json

let to_json t =
  locked t (fun () ->
      Json.Obj
        [
          ( "counters",
            Json.Obj
              (List.map
                 (fun (s, r) -> (series_key s, Json.Int !r))
                 (sorted_bindings t.reg.cnts)) );
          ( "gauges",
            Json.Obj
              (List.map
                 (fun (s, r) -> (series_key s, Json.Float !r))
                 (sorted_bindings t.reg.gauges)) );
          ( "histograms",
            Json.Obj
              (List.map
                 (fun (s, h) ->
                   let sm = summary_of h in
                   ( series_key s,
                     Json.Obj
                       [
                         ("count", Json.Int sm.count);
                         ("sum", Json.Float sm.sum);
                         ("p50", Json.Float sm.p50);
                         ("p95", Json.Float sm.p95);
                         ("max", Json.Float sm.max);
                       ] ))
                 (sorted_bindings t.reg.hists)) );
        ])
