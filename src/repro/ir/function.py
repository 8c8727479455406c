"""IR containers: basic blocks, functions, modules."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang.types import ArrayType, IntType, PointerType, Type
from . import instructions as ins
from .values import GlobalRef, Param, Value


#: Optional boolean attributes loop passes set on header blocks to
#: claim a loop (``vectorize`` → ``no_unroll``, ``unswitch`` →
#: ``unswitched``).  They gate later transformations, so fingerprints
#: must account for them.
BLOCK_TAGS = ("no_unroll", "unswitched")


class Block:
    """A basic block: a label plus a list of instructions, the last of
    which is the terminator once construction finishes."""

    _counter = 0

    def __init__(self, label: str | None = None) -> None:
        if label is None:
            Block._counter += 1
            label = f"bb{Block._counter}"
        self.label = label
        self.instrs: list[ins.Instr] = []

    def __repr__(self) -> str:
        return f"<Block {self.label}>"

    # -- structure ----------------------------------------------------

    @property
    def terminator(self) -> ins.Instr | None:
        if self.instrs and self.instrs[-1].is_terminator:
            return self.instrs[-1]
        return None

    def successors(self) -> list["Block"]:
        term = self.terminator
        return ins.successors(term) if term is not None else []

    def phis(self) -> list[ins.Phi]:
        out = []
        for i in self.instrs:
            if isinstance(i, ins.Phi):
                out.append(i)
            else:
                break
        return out

    def non_phis(self) -> list[ins.Instr]:
        return [i for i in self.instrs if not isinstance(i, ins.Phi)]

    # -- mutation -------------------------------------------------------

    def append(self, instr: ins.Instr) -> ins.Instr:
        assert self.terminator is None, f"{self.label} already terminated"
        instr.block = self
        self.instrs.append(instr)
        return instr

    def insert_before_terminator(self, instr: ins.Instr) -> ins.Instr:
        instr.block = self
        if self.terminator is not None:
            self.instrs.insert(len(self.instrs) - 1, instr)
        else:
            self.instrs.append(instr)
        return instr

    def insert_phi(self, phi: ins.Phi) -> ins.Phi:
        phi.block = self
        self.instrs.insert(0, phi)
        return phi

    def remove(self, instr: ins.Instr) -> None:
        self.instrs.remove(instr)
        instr.block = None

    def replace_terminator(self, new_term: ins.Instr) -> None:
        if self.terminator is not None:
            self.instrs.pop()
        new_term.block = self
        self.instrs.append(new_term)


class IRFunction:
    def __init__(
        self,
        name: str,
        return_ty: Type,
        params: list[Param],
        static: bool = False,
    ) -> None:
        self.name = name
        self.return_ty = return_ty
        self.params = params
        self.static = static
        self.blocks: list[Block] = []

    @property
    def entry(self) -> Block:
        return self.blocks[0]

    def new_block(self, label: str | None = None) -> Block:
        block = Block(label)
        self.blocks.append(block)
        return block

    def instructions(self):
        for block in self.blocks:
            yield from block.instrs

    def remove_block(self, block: Block) -> None:
        self.blocks.remove(block)

    def predecessors(self) -> dict[Block, list[Block]]:
        preds: dict[Block, list[Block]] = {b: [] for b in self.blocks}
        for block in self.blocks:
            for succ in block.successors():
                preds[succ].append(block)
        return preds

    def reachable_blocks(self) -> list[Block]:
        """Blocks reachable from entry, in DFS preorder."""
        seen: set[int] = set()
        order: list[Block] = []
        stack = [self.entry]
        while stack:
            block = stack.pop()
            if id(block) in seen:
                continue
            seen.add(id(block))
            order.append(block)
            stack.extend(reversed(block.successors()))
        return order

    def reverse_postorder(self) -> list[Block]:
        seen: set[int] = set()
        post: list[Block] = []

        def visit(block: Block) -> None:
            stack = [(block, iter(block.successors()))]
            seen.add(id(block))
            while stack:
                current, it = stack[-1]
                advanced = False
                for succ in it:
                    if id(succ) not in seen:
                        seen.add(id(succ))
                        stack.append((succ, iter(succ.successors())))
                        advanced = True
                        break
                if not advanced:
                    post.append(current)
                    stack.pop()

        visit(self.entry)
        return list(reversed(post))

    def drop_unreachable_blocks(self) -> bool:
        """Remove blocks not reachable from entry; fix phis. Returns
        True when anything was removed."""
        reachable = {id(b) for b in self.reachable_blocks()}
        dead = [b for b in self.blocks if id(b) not in reachable]
        if not dead:
            return False
        dead_ids = {id(b) for b in dead}
        self.blocks = [b for b in self.blocks if id(b) not in dead_ids]
        for block in self.blocks:
            for phi in block.phis():
                phi.incomings = [
                    (b, v) for b, v in phi.incomings if id(b) not in dead_ids
                ]
        return True


@dataclass
class GlobalInfo:
    """A module-level variable."""

    name: str
    ty: Type  # IntType, PointerType or ArrayType
    init: object = None  # int | list[int] | ('addr', sym, index) | None
    static: bool = False

    @property
    def element(self) -> IntType:
        if isinstance(self.ty, ArrayType):
            return self.ty.element
        if isinstance(self.ty, PointerType):
            return self.ty.pointee
        assert isinstance(self.ty, IntType)
        return self.ty

    @property
    def length(self) -> int:
        return self.ty.length if isinstance(self.ty, ArrayType) else 1

    @property
    def is_pointer_slot(self) -> bool:
        return isinstance(self.ty, PointerType)

    def initial_cells(self) -> list:
        """The initial cell values (ints, or an ('addr', sym, idx)
        tuple for pointer slots, or None for null pointers)."""
        if isinstance(self.ty, ArrayType):
            if isinstance(self.init, list):
                return list(self.init)
            return [0] * self.ty.length
        if isinstance(self.ty, PointerType):
            return [self.init]  # None or ('addr', sym, idx)
        return [self.init if isinstance(self.init, int) else 0]


@dataclass
class ExternFunction:
    """An opaque callee: body unknown to the compiler (markers etc.)."""

    name: str
    return_ty: Type
    param_tys: list[Type] = field(default_factory=list)


class Module:
    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.globals: dict[str, GlobalInfo] = {}
        self.functions: dict[str, IRFunction] = {}
        self.externs: dict[str, ExternFunction] = {}

    def add_global(self, info: GlobalInfo) -> GlobalInfo:
        self.globals[info.name] = info
        return info

    def global_ref(self, name: str) -> GlobalRef:
        info = self.globals[name]
        return GlobalRef(name, PointerType(info.element))

    def add_function(self, func: IRFunction) -> IRFunction:
        self.functions[func.name] = func
        return func

    def add_extern(self, ext: ExternFunction) -> ExternFunction:
        self.externs[ext.name] = ext
        return ext

    def callee_return_ty(self, name: str) -> Type:
        if name in self.functions:
            return self.functions[name].return_ty
        return self.externs[name].return_ty

    def is_opaque(self, name: str) -> bool:
        return name in self.externs
