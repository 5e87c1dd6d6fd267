(** IPv4 addresses.

    Addresses are represented as non-negative OCaml integers in the range
    [0, 2^32 - 1].  All arithmetic is total; constructors validate their
    inputs and raise [Invalid_argument] on malformed data. *)

type t = private int
(** An IPv4 address. *)

val of_int : int -> t
(** [of_int n] is the address with numeric value [n].
    @raise Invalid_argument if [n] is outside [0, 2^32 - 1]. *)

val to_int : t -> int
(** Numeric value of an address. *)

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] is the address [a.b.c.d].
    @raise Invalid_argument if any octet is outside [0, 255]. *)

val of_string : string -> t
(** Parse dotted-quad notation, e.g. ["10.0.1.254"].
    @raise Invalid_argument on malformed input. *)

val of_string_opt : string -> t option
(** Like {!of_string} but returns [None] on malformed input. *)

val to_string : t -> string
(** Dotted-quad rendering. *)

val pp : Format.formatter -> t -> unit
(** Pretty-printer (dotted quad). *)

val compare : t -> t -> int
(** Total order on addresses (numeric). *)

val equal : t -> t -> bool

val succ : t -> t
(** Next address; wraps at 255.255.255.255. *)

val pred : t -> t
(** Previous address; wraps at 0.0.0.0. *)

val bit : t -> int -> bool
(** [bit a i] is bit [i] of [a], where bit 0 is the most significant.
    @raise Invalid_argument if [i] is outside [0, 31]. *)

val any : t
(** 0.0.0.0 *)

val broadcast : t
(** 255.255.255.255 *)
