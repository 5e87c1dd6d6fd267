(** A minimal JSON parser and printer, vendored because [yojson] is not
    available in this environment.  Supports the full JSON grammar except
    that numbers are split into [Int] and [Float] on parse ([42] parses as
    [Int 42], [42.0] as [Float 42.0]). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** Insertion-ordered object members. *)

exception Parse_error of string
(** Raised by {!of_string} with a position-annotated message. *)

val of_string : string -> t
(** Parse a JSON document.  @raise Parse_error on malformed input. *)

val of_string_opt : string -> t option

val to_string : ?pretty:bool -> t -> string
(** Serialise.  [pretty] (default false) adds 2-space indentation. *)

(** {2 Accessors} — each returns [None] on shape mismatch. *)

val member : string -> t -> t option
(** Object member lookup. *)

val to_list_opt : t -> t list option
val to_string_opt : t -> string option
val to_int_opt : t -> int option
val to_bool_opt : t -> bool option
val to_float_opt : t -> float option
(** Accepts both [Int] and [Float]. *)

val equal : t -> t -> bool
