"""Storage substrate: tables, schemas, catalogs, growable rid vectors."""

from .catalog import Catalog, CatalogView
from .growable import GROWTH_FACTOR, INITIAL_CAPACITY, GrowableRidVector
from .table import ColumnType, Schema, Table, concat_tables

__all__ = [
    "Catalog",
    "CatalogView",
    "ColumnType",
    "GROWTH_FACTOR",
    "GrowableRidVector",
    "INITIAL_CAPACITY",
    "Schema",
    "Table",
    "concat_tables",
]
