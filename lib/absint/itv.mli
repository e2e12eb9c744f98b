(** Interval abstract domain: the numeric component of every abstract
    value ({!Aval}).

    Bounds are OCaml integers extended with infinities; arithmetic on
    finite bounds saturates to the matching infinity on overflow, which is
    a sound over-approximation. *)

open Cfront

type bound = Ninf | Fin of int | Pinf

type t = Bot | Itv of bound * bound
(** Non-[Bot] values are normalized: lower bound not above the upper. *)

val name : string
(** Domain name, reported in the verifier's JSON (["interval"]). *)

val bottom : t
val top : t
val is_bottom : t -> bool
val const : int -> t
val range : int -> int -> t
val equal : t -> t -> bool
val leq : t -> t -> bool
val join : t -> t -> t
val meet : t -> t -> t

val widen : t -> t -> t
(** [widen old next]: over-approximates [join old next]; repeated
    application of [widen] along a growing chain must stabilize. *)

val contained_in : t -> lo:int -> hi:int -> bool
(** Every concrete value lies in [lo, hi]; discharges a bounds
    obligation. *)

val disjoint_from : t -> lo:int -> hi:int -> bool
(** No concrete value lies in [lo, hi]; the access is definitely out of
    bounds. *)

val singleton : t -> int option

val binop : Ast.binop -> t -> t -> t
(** Forward abstract transfer of a C binary operator.  Comparison and
    logical operators yield a subset of [0, 1]. *)

val neg : t -> t
val bnot : t -> t

val lognot : t -> t
(** Abstract [!x]. *)

val filter : Ast.binop -> t -> t -> t
(** [filter op a b] refines [a] assuming the comparison [a op b] holds;
    identity for non-comparison operators. *)

val filter_nonzero : t -> t
val filter_zero : t -> t
val to_string : t -> string
