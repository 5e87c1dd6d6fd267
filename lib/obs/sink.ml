type t = { emit : string -> unit; mutable closer : (unit -> unit) option }

let write t line = t.emit line

let close t =
  match t.closer with
  | None -> ()
  | Some f ->
      t.closer <- None;
      f ()

let null = { emit = (fun _ -> ()); closer = None }

let memory () =
  let lines = ref [] in
  ( { emit = (fun l -> lines := l :: !lines); closer = None },
    fun () -> List.rev !lines )

let file path =
  let oc = open_out path in
  {
    emit =
      (fun l ->
        output_string oc l;
        output_char oc '\n');
    closer = Some (fun () -> close_out oc);
  }
