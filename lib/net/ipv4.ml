type t = int

let max_value = 0xFFFF_FFFF

let of_int n =
  if n < 0 || n > max_value then
    invalid_arg (Printf.sprintf "Ipv4.of_int: %d out of range" n);
  n

let to_int a = a

let of_octets a b c d =
  let check o =
    if o < 0 || o > 255 then
      invalid_arg (Printf.sprintf "Ipv4.of_octets: octet %d out of range" o)
  in
  check a;
  check b;
  check c;
  check d;
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let of_string_opt s =
  (* Hand-rolled parse: exactly four decimal fields separated by '.'. *)
  let len = String.length s in
  let rec field i acc digits =
    if i >= len then (i, acc, digits)
    else
      match s.[i] with
      | '0' .. '9' when digits < 3 ->
          field (i + 1) ((acc * 10) + (Char.code s.[i] - Char.code '0')) (digits + 1)
      | _ -> (i, acc, digits)
  in
  let parse_octet i =
    let j, v, digits = field i 0 0 in
    if digits = 0 || v > 255 then None else Some (j, v)
  in
  let ( let* ) = Option.bind in
  let expect_dot i = if i < len && s.[i] = '.' then Some (i + 1) else None in
  let* i, a = parse_octet 0 in
  let* i = expect_dot i in
  let* i, b = parse_octet i in
  let* i = expect_dot i in
  let* i, c = parse_octet i in
  let* i = expect_dot i in
  let* i, d = parse_octet i in
  if i = len then Some (of_octets a b c d) else None

let of_string s =
  match of_string_opt s with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Ipv4.of_string: %S" s)

let to_string a =
  Printf.sprintf "%d.%d.%d.%d"
    ((a lsr 24) land 0xFF)
    ((a lsr 16) land 0xFF)
    ((a lsr 8) land 0xFF)
    (a land 0xFF)

let pp fmt a = Format.pp_print_string fmt (to_string a)
let compare = Int.compare
let equal = Int.equal
let succ a = (a + 1) land max_value
let pred a = (a - 1) land max_value

let bit a i =
  if i < 0 || i > 31 then invalid_arg "Ipv4.bit: index out of range";
  (a lsr (31 - i)) land 1 = 1

let any = 0
let broadcast = max_value
