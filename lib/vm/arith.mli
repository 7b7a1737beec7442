(** 32-bit integer arithmetic with IA-32-style eflags computation.
    Values are unsigned ints in [0, 2{^32}); every helper returns the
    result together with the updated flags.  Flags IA-32 leaves
    undefined are given fixed deterministic definitions. *)

open Isa

val mask32 : int
val wrap : int -> int
val msb : int -> bool
val to_signed : int -> int
val of_signed : int -> int
val parity : int -> bool

type result = int
(** A 32-bit value and the flags it sets, packed into one immediate
    int so that computing it allocates nothing; read it with {!value}
    and {!flags}. *)

val value : result -> int
val flags : result -> Eflags.t

val add : int -> int -> Eflags.t -> result
val adc : int -> int -> Eflags.t -> result
(** [add] with the incoming flags' CF as carry-in. *)

val sub : int -> int -> Eflags.t -> result
(** [sub a b fl] computes [a - b]. *)

val sbb : int -> int -> Eflags.t -> result
(** [sub] with the incoming flags' CF as borrow-in. *)

val inc : int -> Eflags.t -> result
(** Like [add 1] but CF is preserved — the asymmetry the
    strength-reduction client must respect. *)

val dec : int -> Eflags.t -> result
val land_ : int -> int -> Eflags.t -> result
val lor_ : int -> int -> Eflags.t -> result
val lxor_ : int -> int -> Eflags.t -> result
val neg : int -> Eflags.t -> result
val shl : int -> int -> Eflags.t -> result
val shr : int -> int -> Eflags.t -> result
val sar : int -> int -> Eflags.t -> result
val imul : int -> int -> Eflags.t -> result

exception Division_by_zero

val idiv : eax:int -> int -> Eflags.t -> result
(** Quotient and flags of truncated signed division. *)

val irem : eax:int -> int -> int
(** Remainder of the same division; it keeps the dividend's sign. *)

val fcmp : float -> float -> Eflags.t -> Eflags.t
(** comisd-style: unordered sets ZF/PF/CF; [>] clears all; [<] sets CF;
    [=] sets ZF. *)
