"""DOM substrate: the tree, traversal, events and the per-principal DOM mediator."""

from .document import Document
from .dom_api import DomApi
from .element import RAW_TEXT_ELEMENTS, VOID_ELEMENTS, Element
from .events import SUPPORTED_EVENT_TYPES, Event, EventDispatcher, nodes_with_inline_handlers
from .node import CommentNode, Node, NodeType, TextNode
from .traversal import (
    Selector,
    SimpleSelector,
    elements_in_rings,
    find_all,
    find_first,
    parse_selector,
    query_selector,
    query_selector_all,
    walk_elements,
)

__all__ = [
    "CommentNode",
    "Document",
    "DomApi",
    "Element",
    "Event",
    "EventDispatcher",
    "Node",
    "NodeType",
    "RAW_TEXT_ELEMENTS",
    "SUPPORTED_EVENT_TYPES",
    "Selector",
    "SimpleSelector",
    "TextNode",
    "VOID_ELEMENTS",
    "elements_in_rings",
    "find_all",
    "find_first",
    "nodes_with_inline_handlers",
    "parse_selector",
    "query_selector",
    "query_selector_all",
    "walk_elements",
]
