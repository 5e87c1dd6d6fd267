type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Parsing: a hand-written recursive-descent parser over a string.     *)
(* ------------------------------------------------------------------ *)

type state = { src : string; mutable pos : int }

let error st msg = raise (Parse_error (Printf.sprintf "at offset %d: %s" st.pos msg))
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> error st (Printf.sprintf "expected %C, found %C" c c')
  | None -> error st (Printf.sprintf "expected %C, found end of input" c)

let expect_keyword st kw value =
  let n = String.length kw in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = kw then begin
    st.pos <- st.pos + n;
    value
  end
  else error st (Printf.sprintf "expected %s" kw)

let parse_string_body st =
  (* [st.pos] is just past the opening quote. *)
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' ->
        advance st;
        Buffer.contents buf
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> error st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                if st.pos + 4 > String.length st.src then error st "truncated \\u escape";
                let hex = String.sub st.src st.pos 4 in
                let code =
                  try int_of_string ("0x" ^ hex)
                  with Failure _ -> error st "invalid \\u escape"
                in
                st.pos <- st.pos + 4;
                (* Encode the code point as UTF-8 (BMP only; surrogate pairs
                   are stored as two separate escapes, adequate here). *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
            | c -> error st (Printf.sprintf "invalid escape \\%C" c));
            go ())
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  let consume_digits () =
    let rec go () =
      match peek st with
      | Some ('0' .. '9') ->
          advance st;
          go ()
      | _ -> ()
    in
    go ()
  in
  if peek st = Some '-' then advance st;
  consume_digits ();
  if peek st = Some '.' then begin
    is_float := true;
    advance st;
    consume_digits ()
  end;
  (match peek st with
  | Some ('e' | 'E') ->
      is_float := true;
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      consume_digits ()
  | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> error st (Printf.sprintf "invalid number %S" text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> error st (Printf.sprintf "invalid number %S" text))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '"' ->
      advance st;
      String (parse_string_body st)
  | Some '{' -> parse_obj st
  | Some '[' -> parse_list st
  | Some 't' -> expect_keyword st "true" (Bool true)
  | Some 'f' -> expect_keyword st "false" (Bool false)
  | Some 'n' -> expect_keyword st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> error st (Printf.sprintf "unexpected character %C" c)

and parse_obj st =
  expect st '{';
  skip_ws st;
  if peek st = Some '}' then begin
    advance st;
    Obj []
  end
  else
    let rec members acc =
      skip_ws st;
      expect st '"';
      let key = parse_string_body st in
      skip_ws st;
      expect st ':';
      let v = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          members ((key, v) :: acc)
      | Some '}' ->
          advance st;
          Obj (List.rev ((key, v) :: acc))
      | _ -> error st "expected ',' or '}'"
    in
    members []

and parse_list st =
  expect st '[';
  skip_ws st;
  if peek st = Some ']' then begin
    advance st;
    List []
  end
  else
    let rec elements acc =
      let v = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          elements (v :: acc)
      | Some ']' ->
          advance st;
          List (List.rev (v :: acc))
      | _ -> error st "expected ',' or ']'"
    in
    elements []

let of_string s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then error st "trailing garbage";
  v

let of_string_opt s = try Some (of_string s) with Parse_error _ -> None

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let float_to_json_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let to_string ?(pretty = false) t =
  let buf = Buffer.create 256 in
  let indent n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let rec go depth t =
    match t with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_to_json_string f)
    | String s -> Buffer.add_string buf (escape_string s)
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            if pretty then begin
              Buffer.add_char buf '\n';
              indent (depth + 1)
            end;
            go (depth + 1) item)
          items;
        if pretty then begin
          Buffer.add_char buf '\n';
          indent depth
        end;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj members ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            if pretty then begin
              Buffer.add_char buf '\n';
              indent (depth + 1)
            end;
            Buffer.add_string buf (escape_string k);
            Buffer.add_char buf ':';
            if pretty then Buffer.add_char buf ' ';
            go (depth + 1) v)
          members;
        if pretty then begin
          Buffer.add_char buf '\n';
          indent depth
        end;
        Buffer.add_char buf '}'
  in
  go 0 t;
  Buffer.contents buf

let member key = function
  | Obj members -> List.assoc_opt key members
  | _ -> None

let to_list_opt = function List l -> Some l | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
let to_int_opt = function Int i -> Some i | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | String x, String y -> x = y
  | List x, List y -> List.length x = List.length y && List.for_all2 equal x y
  | Obj x, Obj y ->
      List.length x = List.length y
      && List.for_all2 (fun (k1, v1) (k2, v2) -> k1 = k2 && equal v1 v2) x y
  | (Null | Bool _ | Int _ | Float _ | String _ | List _ | Obj _), _ -> false
