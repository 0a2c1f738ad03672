//===- fs/LocalFileSystem.cpp ---------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "fs/LocalFileSystem.h"
#include "support/Assert.h"
#include "support/Format.h"
#include <deque>
#include <set>

using namespace dmb;

/// One inode: attributes plus type-specific payload. Directories own their
/// entry index and remember their parent (the ".." entry); regular files
/// track only size/blocks (content is opaque to metadata benchmarking).
/// Fields that few inodes use live in a record allocated on first use.
struct LocalFileSystem::Inode {
  struct ExtraFields {
    std::string LinkTarget; ///< symlink target path
    std::map<std::string, std::string> XAttrs;
    std::set<FileHandle> ReadLockers; ///< advisory read locks (\S 2.3.2)
  };

  Attr A;
  std::unique_ptr<DirectoryIndex> Dir; ///< non-null for directories
  InodeNum Parent = 0;                 ///< ".." for directories
  uint32_t OpenCount = 0; ///< open handles; unlinked files linger (\S 2.3.1)
  FileHandle WriteLocker = InvalidHandle; ///< advisory write lock (\S 2.3.2)
  std::unique_ptr<ExtraFields> Extra;     ///< null until first needed

  ExtraFields &extra() {
    if (!Extra)
      Extra = std::make_unique<ExtraFields>();
    return *Extra;
  }
};

LocalFileSystem::LocalFileSystem(FsConfig C) : Config(C) {
  static_assert(sizeof(Inode) <= 128,
                "keep fields few inodes use in Inode::ExtraFields");
  auto Root = std::make_unique<Inode>();
  Root->A.Ino = RootIno;
  Root->A.Dev = Config.DeviceId;
  Root->A.Type = FileType::Directory;
  Root->A.Mode = 0777;
  Root->A.Nlink = 2; // "." and the (virtual) entry in its parent.
  Root->A.Uid = 0;
  Root->A.Gid = 0;
  Root->A.BlockSize = Config.BlockSize;
  Root->Dir = makeDirectoryIndex(Config.DirIndex);
  Root->Parent = RootIno; // Root's dot-dot points to itself (\S 2.1.1).
  Inodes.resize(RootIno); // no inode 0
  Inodes.push_back(std::move(Root));
  LiveInodes = 1;
}

LocalFileSystem::~LocalFileSystem() = default;

const DirEntry *LocalFileSystem::dirLookup(Inode &Dir, std::string_view Name,
                                           OpCost &Cost) const {
  DMB_ASSERT(Dir.Dir, "dirLookup on non-directory");
  return Dir.Dir->lookup(Name, Cost);
}

bool LocalFileSystem::checkAccess(const Cred &C, const Inode &Node,
                                  Access Want) const {
  if (C.isRoot())
    return true;
  uint32_t Shift;
  if (C.Uid == Node.A.Uid)
    Shift = 6;
  else if (C.Gid == Node.A.Gid)
    Shift = 3;
  else
    Shift = 0;
  uint32_t Bit = 0;
  switch (Want) {
  case Access::Read:
    Bit = 04;
    break;
  case Access::Write:
    Bit = 02;
    break;
  case Access::Execute:
    Bit = 01;
    break;
  }
  return (Node.A.Mode >> Shift) & Bit;
}

FsError LocalFileSystem::checkName(std::string_view Name) const {
  if (Name.empty())
    return FsError::Invalid;
  if (Name.size() > Config.NameMax)
    return FsError::NameTooLong;
  if (Name.find('/') != std::string_view::npos)
    return FsError::Invalid;
  return FsError::Ok;
}

/// Pushes the components of \p Text onto \p Walk, unless it has none.
/// Every view on the stack starts with a component, so the walk is at its
/// last component exactly when the stack is empty.
static void pushComponents(std::vector<std::string_view> &Walk,
                           std::string_view Text) {
  size_t First = Text.find_first_not_of('/');
  if (First != std::string_view::npos)
    Walk.push_back(Text.substr(First));
}

/// Takes the next component off the top of \p Walk.
static std::string_view popComponent(std::vector<std::string_view> &Walk) {
  std::string_view &Top = Walk.back();
  size_t End = Top.find('/');
  std::string_view Name = Top.substr(0, End);
  size_t Next = End == std::string_view::npos
                    ? End
                    : Top.find_first_not_of('/', End);
  if (Next == std::string_view::npos)
    Walk.pop_back();
  else
    Top.remove_prefix(Next);
  return Name;
}

auto LocalFileSystem::resolve(OpCtx &Ctx, std::string_view Path,
                              bool FollowLast) -> Result<Resolved> {
  if (Path.empty() || Path[0] != '/')
    return FsError::Invalid;

  std::vector<std::string_view> &Work = WalkStack;
  Work.clear();
  pushComponents(Work, Path);

  // The root itself: its own parent, empty leaf.
  if (Work.empty())
    return Resolved{RootIno, {}, RootIno};

  InodeNum Cur = RootIno;
  int SymlinkDepth = 0;

  while (!Work.empty()) {
    std::string_view Name = popComponent(Work);
    bool IsLast = Work.empty();

    Inode *CurNode = getInode(Cur);
    DMB_ASSERT(CurNode, "dangling directory inode");
    if (CurNode->A.Type != FileType::Directory)
      return FsError::NotDir;
    // The POSIX path-walk rule (\S 2.3.1): x-permission is required on every
    // directory along the path.
    if (!checkAccess(Ctx.Creds, *CurNode, Access::Execute))
      return FsError::Access;
    ++Ctx.Cost.InodesTouched;

    if (Name == ".") {
      if (IsLast)
        return Resolved{CurNode->Parent, Name, Cur};
      continue;
    }
    if (Name == "..") {
      InodeNum Parent = CurNode->Parent;
      if (IsLast)
        return Resolved{getInode(Parent)->Parent, Name, Parent};
      Cur = Parent;
      continue;
    }
    if (Name.size() > Config.NameMax)
      return FsError::NameTooLong;

    const DirEntry *Entry = dirLookup(*CurNode, Name, Ctx.Cost);
    if (!Entry) {
      if (IsLast)
        return Resolved{Cur, Name, 0};
      return FsError::NoEnt;
    }

    Inode *Found = getInode(Entry->Ino);
    DMB_ASSERT(Found, "directory entry references dead inode");

    if (Found->A.Type == FileType::Symlink && (!IsLast || FollowLast)) {
      if (++SymlinkDepth > Config.MaxSymlinkDepth)
        return FsError::Loop;
      ++Ctx.Cost.SymlinksFollowed;
      // Splice the target in front of the rest of the walk.
      const std::string &Target = Found->Extra->LinkTarget;
      pushComponents(Work, Target);
      if (Target[0] == '/')
        Cur = RootIno;
      if (Work.empty()) {
        // A last component linking to a target made only of slashes:
        // resolves to the root. (symlink() rejects an empty target.)
        Inode *Node = getInode(Cur);
        return Resolved{Node->Parent, {}, Cur};
      }
      continue;
    }

    if (IsLast)
      return Resolved{Cur, Name, Entry->Ino};
    Cur = Entry->Ino;
  }
  return FsError::NoEnt; // Unreachable; loop always returns on last.
}

Result<InodeNum> LocalFileSystem::resolveExisting(OpCtx &Ctx,
                                                  std::string_view Path,
                                                  bool FollowLast) {
  Result<Resolved> R = resolve(Ctx, Path, FollowLast);
  if (!R.ok())
    return R.error();
  if (R->Target == 0)
    return FsError::NoEnt;
  return R->Target;
}

LocalFileSystem::Inode *LocalFileSystem::createInode(OpCtx &Ctx,
                                                     FileType Type,
                                                     uint32_t Mode) {
  if (LiveInodes >= Config.MaxInodes)
    return nullptr;
  auto Node = std::make_unique<Inode>();
  Inode *Ptr = Node.get();
  DMB_ASSERT(NextIno == Inodes.size(), "inode table out of step");
  Node->A.Ino = NextIno++;
  Node->A.Dev = Config.DeviceId;
  Node->A.Type = Type;
  Node->A.Mode = Mode & PermMask;
  Node->A.Uid = Ctx.Creds.Uid;
  Node->A.Gid = Ctx.Creds.Gid;
  Node->A.Atime = Node->A.Mtime = Node->A.Ctime = Ctx.Now;
  Node->A.BlockSize = Config.BlockSize;
  if (Type == FileType::Directory)
    Node->Dir = makeDirectoryIndex(Config.DirIndex);
  ++Ctx.Cost.InodesTouched;
  Inodes.push_back(std::move(Node));
  ++LiveInodes;
  return Ptr;
}

void LocalFileSystem::destroyInode(Inode &Node) {
  AllocatedBlocks -= Node.A.Blocks;
  --LiveInodes;
  Inodes[Node.A.Ino].reset();
}

void LocalFileSystem::maybeReap(InodeNum Ino) {
  Inode *Node = getInode(Ino);
  if (Node && Node->A.Nlink == 0 && Node->OpenCount == 0)
    destroyInode(*Node);
}

uint64_t LocalFileSystem::blocksFor(uint64_t Size) const {
  if (Size <= Config.InlineDataMax)
    return 0;
  return (Size + Config.BlockSize - 1) / Config.BlockSize;
}

bool LocalFileSystem::reallocate(OpCtx &Ctx, Inode &Node, uint64_t NewSize) {
  uint64_t OldBlocks = Node.A.Blocks;
  uint64_t NewBlocks = blocksFor(NewSize);
  if (NewBlocks > OldBlocks) {
    uint64_t Delta = NewBlocks - OldBlocks;
    if (AllocatedBlocks + Delta > Config.MaxBlocks)
      return false;
    AllocatedBlocks += Delta;
    Ctx.Cost.BlocksAllocated += Delta;
  } else if (NewBlocks < OldBlocks) {
    uint64_t Delta = OldBlocks - NewBlocks;
    AllocatedBlocks -= Delta;
    Ctx.Cost.BlocksFreed += Delta;
  }
  Node.A.Blocks = NewBlocks;
  Node.A.Size = NewSize;
  return true;
}

//===----------------------------------------------------------------------===//
// Directory operations
//===----------------------------------------------------------------------===//

FsError LocalFileSystem::mkdir(OpCtx &Ctx, const std::string &Path,
                               uint32_t Mode) {
  Result<Resolved> R = resolve(Ctx, Path, /*FollowLast=*/false);
  if (!R.ok())
    return R.error();
  if (R->Leaf.empty() || R->Leaf == "." || R->Leaf == "..")
    return FsError::Exists;
  if (R->Target != 0)
    return FsError::Exists;
  if (FsError E = checkName(R->Leaf); failed(E))
    return E;

  Inode *Parent = getInode(R->Parent);
  if (!checkAccess(Ctx.Creds, *Parent, Access::Write))
    return FsError::Access;

  Inode *Node = createInode(Ctx, FileType::Directory, Mode);
  if (!Node)
    return FsError::NoSpace;
  Node->A.Nlink = 2; // "." plus the entry in the parent.
  Node->Parent = Parent->A.Ino;

  Parent->Dir->insert(
      DirEntry{std::string(R->Leaf), Node->A.Ino, FileType::Directory},
      Ctx.Cost);
  ++Parent->A.Nlink; // The child's "..".
  Parent->A.Mtime = Parent->A.Ctime = Ctx.Now;
  ++Ctx.Cost.InodesTouched;
  return FsError::Ok;
}

FsError LocalFileSystem::rmdir(OpCtx &Ctx, const std::string &Path) {
  Result<Resolved> R = resolve(Ctx, Path, /*FollowLast=*/false);
  if (!R.ok())
    return R.error();
  if (R->Leaf.empty() || R->Leaf == "." || R->Leaf == "..")
    return FsError::Busy;
  if (R->Target == 0)
    return FsError::NoEnt;

  Inode *Node = getInode(R->Target);
  if (Node->A.Type != FileType::Directory)
    return FsError::NotDir;
  if (!Node->Dir->empty())
    return FsError::NotEmpty;

  Inode *Parent = getInode(R->Parent);
  if (!checkAccess(Ctx.Creds, *Parent, Access::Write))
    return FsError::Access;

  Parent->Dir->erase(R->Leaf, Ctx.Cost);
  --Parent->A.Nlink;
  Parent->A.Mtime = Parent->A.Ctime = Ctx.Now;
  destroyInode(*Node);
  ++Ctx.Cost.InodesTouched;
  return FsError::Ok;
}

FsError LocalFileSystem::unlink(OpCtx &Ctx, const std::string &Path) {
  Result<Resolved> R = resolve(Ctx, Path, /*FollowLast=*/false);
  if (!R.ok())
    return R.error();
  if (R->Leaf.empty() || R->Leaf == "." || R->Leaf == "..")
    return FsError::IsDir;
  if (R->Target == 0)
    return FsError::NoEnt;

  Inode *Node = getInode(R->Target);
  if (Node->A.Type == FileType::Directory)
    return FsError::IsDir;

  Inode *Parent = getInode(R->Parent);
  if (!checkAccess(Ctx.Creds, *Parent, Access::Write))
    return FsError::Access;

  Parent->Dir->erase(R->Leaf, Ctx.Cost);
  Parent->A.Mtime = Parent->A.Ctime = Ctx.Now;
  --Node->A.Nlink;
  Node->A.Ctime = Ctx.Now;
  ++Ctx.Cost.InodesTouched;
  // POSIX: the file lives on while open handles remain (\S 2.3.1).
  maybeReap(R->Target);
  return FsError::Ok;
}

FsError LocalFileSystem::remove(OpCtx &Ctx, const std::string &Path) {
  // Probe the type with a non-following walk, then delegate.
  OpCtx Probe{Ctx.Creds, Ctx.Now, OpCost()};
  Result<Resolved> R = resolve(Probe, Path, /*FollowLast=*/false);
  if (!R.ok())
    return R.error();
  if (R->Target != 0 &&
      getInode(R->Target)->A.Type == FileType::Directory)
    return rmdir(Ctx, Path);
  return unlink(Ctx, Path);
}

FsError LocalFileSystem::rename(OpCtx &Ctx, const std::string &From,
                                const std::string &To) {
  Result<Resolved> Src = resolve(Ctx, From, /*FollowLast=*/false);
  if (!Src.ok())
    return Src.error();
  if (Src->Leaf.empty() || Src->Leaf == "." || Src->Leaf == "..")
    return FsError::Busy;
  if (Src->Target == 0)
    return FsError::NoEnt;

  Result<Resolved> Dst = resolve(Ctx, To, /*FollowLast=*/false);
  if (!Dst.ok())
    return Dst.error();
  if (Dst->Leaf.empty() || Dst->Leaf == "." || Dst->Leaf == "..")
    return FsError::Busy;
  if (FsError E = checkName(Dst->Leaf); failed(E))
    return E;

  // Renaming a file onto itself (same inode) is a successful no-op.
  if (Src->Target == Dst->Target)
    return FsError::Ok;

  Inode *SrcNode = getInode(Src->Target);
  Inode *SrcParent = getInode(Src->Parent);
  Inode *DstParent = getInode(Dst->Parent);

  if (!checkAccess(Ctx.Creds, *SrcParent, Access::Write) ||
      !checkAccess(Ctx.Creds, *DstParent, Access::Write))
    return FsError::Access;

  bool SrcIsDir = SrcNode->A.Type == FileType::Directory;
  if (SrcIsDir) {
    // A directory must not be moved into its own subtree (\S 2.6.3).
    for (InodeNum P = Dst->Parent;;) {
      if (P == Src->Target)
        return FsError::Invalid;
      if (P == RootIno)
        break;
      P = getInode(P)->Parent;
    }
  }

  if (Dst->Target != 0) {
    Inode *Victim = getInode(Dst->Target);
    bool VictimIsDir = Victim->A.Type == FileType::Directory;
    if (SrcIsDir && !VictimIsDir)
      return FsError::NotDir;
    if (!SrcIsDir && VictimIsDir)
      return FsError::IsDir;
    if (VictimIsDir && !Victim->Dir->empty())
      return FsError::NotEmpty;
    // Atomically replace the destination entry.
    DstParent->Dir->erase(Dst->Leaf, Ctx.Cost);
    if (VictimIsDir) {
      --DstParent->A.Nlink;
      destroyInode(*Victim);
    } else {
      --Victim->A.Nlink;
      Victim->A.Ctime = Ctx.Now;
      maybeReap(Dst->Target);
    }
  }

  SrcParent->Dir->erase(Src->Leaf, Ctx.Cost);
  DstParent->Dir->insert(
      DirEntry{std::string(Dst->Leaf), Src->Target, SrcNode->A.Type},
      Ctx.Cost);
  if (SrcIsDir && Src->Parent != Dst->Parent) {
    --SrcParent->A.Nlink;
    ++DstParent->A.Nlink;
    SrcNode->Parent = Dst->Parent;
  }
  SrcParent->A.Mtime = SrcParent->A.Ctime = Ctx.Now;
  DstParent->A.Mtime = DstParent->A.Ctime = Ctx.Now;
  SrcNode->A.Ctime = Ctx.Now;
  Ctx.Cost.InodesTouched += 3;
  return FsError::Ok;
}

FsError LocalFileSystem::link(OpCtx &Ctx, const std::string &Existing,
                              const std::string &NewPath) {
  Result<InodeNum> Src = resolveExisting(Ctx, Existing, /*FollowLast=*/false);
  if (!Src.ok())
    return Src.error();
  Inode *SrcNode = getInode(*Src);
  // Hardlinks to directories are forbidden: cyclic-reference risk
  // (\S 2.1.1 "Links").
  if (SrcNode->A.Type == FileType::Directory)
    return FsError::Perm;

  Result<Resolved> Dst = resolve(Ctx, NewPath, /*FollowLast=*/false);
  if (!Dst.ok())
    return Dst.error();
  if (Dst->Target != 0 || Dst->Leaf.empty())
    return FsError::Exists;
  if (FsError E = checkName(Dst->Leaf); failed(E))
    return E;

  Inode *Parent = getInode(Dst->Parent);
  if (!checkAccess(Ctx.Creds, *Parent, Access::Write))
    return FsError::Access;

  Parent->Dir->insert(DirEntry{std::string(Dst->Leaf), *Src, SrcNode->A.Type},
                      Ctx.Cost);
  ++SrcNode->A.Nlink;
  SrcNode->A.Ctime = Ctx.Now;
  Parent->A.Mtime = Parent->A.Ctime = Ctx.Now;
  Ctx.Cost.InodesTouched += 2;
  return FsError::Ok;
}

FsError LocalFileSystem::symlink(OpCtx &Ctx, const std::string &Target,
                                 const std::string &LinkPath) {
  // Linux symlink(2): an empty target is ENOENT.
  if (Target.empty())
    return FsError::NoEnt;
  Result<Resolved> Dst = resolve(Ctx, LinkPath, /*FollowLast=*/false);
  if (!Dst.ok())
    return Dst.error();
  if (Dst->Target != 0 || Dst->Leaf.empty())
    return FsError::Exists;
  if (FsError E = checkName(Dst->Leaf); failed(E))
    return E;

  Inode *Parent = getInode(Dst->Parent);
  if (!checkAccess(Ctx.Creds, *Parent, Access::Write))
    return FsError::Access;

  Inode *Node = createInode(Ctx, FileType::Symlink, 0777);
  if (!Node)
    return FsError::NoSpace;
  Node->extra().LinkTarget = Target;
  Node->A.Size = Target.size();
  Node->A.Nlink = 1;

  Parent->Dir->insert(
      DirEntry{std::string(Dst->Leaf), Node->A.Ino, FileType::Symlink},
      Ctx.Cost);
  Parent->A.Mtime = Parent->A.Ctime = Ctx.Now;
  return FsError::Ok;
}

Result<std::string> LocalFileSystem::readlink(OpCtx &Ctx,
                                              const std::string &Path) {
  Result<InodeNum> R = resolveExisting(Ctx, Path, /*FollowLast=*/false);
  if (!R.ok())
    return R.error();
  Inode *Node = getInode(*R);
  if (Node->A.Type != FileType::Symlink)
    return FsError::Invalid;
  ++Ctx.Cost.InodesTouched;
  return Node->Extra->LinkTarget;
}

//===----------------------------------------------------------------------===//
// Attribute operations
//===----------------------------------------------------------------------===//

Result<Attr> LocalFileSystem::stat(OpCtx &Ctx, const std::string &Path) {
  Result<InodeNum> R = resolveExisting(Ctx, Path, /*FollowLast=*/true);
  if (!R.ok())
    return R.error();
  ++Ctx.Cost.InodesTouched;
  return getInode(*R)->A;
}

Result<Attr> LocalFileSystem::lstat(OpCtx &Ctx, const std::string &Path) {
  Result<InodeNum> R = resolveExisting(Ctx, Path, /*FollowLast=*/false);
  if (!R.ok())
    return R.error();
  ++Ctx.Cost.InodesTouched;
  return getInode(*R)->A;
}

FsError LocalFileSystem::chmod(OpCtx &Ctx, const std::string &Path,
                               uint32_t Mode) {
  Result<InodeNum> R = resolveExisting(Ctx, Path, /*FollowLast=*/true);
  if (!R.ok())
    return R.error();
  Inode *Node = getInode(*R);
  if (!Ctx.Creds.isRoot() && Ctx.Creds.Uid != Node->A.Uid)
    return FsError::Perm;
  Node->A.Mode = Mode & PermMask;
  Node->A.Ctime = Ctx.Now;
  ++Ctx.Cost.InodesTouched;
  return FsError::Ok;
}

FsError LocalFileSystem::chown(OpCtx &Ctx, const std::string &Path,
                               uint32_t Uid, uint32_t Gid) {
  Result<InodeNum> R = resolveExisting(Ctx, Path, /*FollowLast=*/true);
  if (!R.ok())
    return R.error();
  Inode *Node = getInode(*R);
  // Only root may change the owner; the owner may change the group.
  if (!Ctx.Creds.isRoot()) {
    if (Uid != Node->A.Uid || Ctx.Creds.Uid != Node->A.Uid)
      return FsError::Perm;
  }
  Node->A.Uid = Uid;
  Node->A.Gid = Gid;
  Node->A.Ctime = Ctx.Now;
  ++Ctx.Cost.InodesTouched;
  return FsError::Ok;
}

FsError LocalFileSystem::utimes(OpCtx &Ctx, const std::string &Path,
                                SimTime Atime, SimTime Mtime) {
  Result<InodeNum> R = resolveExisting(Ctx, Path, /*FollowLast=*/true);
  if (!R.ok())
    return R.error();
  Inode *Node = getInode(*R);
  if (!Ctx.Creds.isRoot() && Ctx.Creds.Uid != Node->A.Uid)
    return FsError::Perm;
  Node->A.Atime = Atime;
  Node->A.Mtime = Mtime;
  Node->A.Ctime = Ctx.Now;
  ++Ctx.Cost.InodesTouched;
  return FsError::Ok;
}

Result<std::vector<DirEntry>>
LocalFileSystem::readdir(OpCtx &Ctx, const std::string &Path) {
  Result<InodeNum> R = resolveExisting(Ctx, Path, /*FollowLast=*/true);
  if (!R.ok())
    return R.error();
  Inode *Node = getInode(*R);
  if (Node->A.Type != FileType::Directory)
    return FsError::NotDir;
  if (!checkAccess(Ctx.Creds, *Node, Access::Read))
    return FsError::Access;

  std::vector<DirEntry> Entries;
  Entries.push_back(DirEntry{".", Node->A.Ino, FileType::Directory});
  Entries.push_back(DirEntry{"..", Node->Parent, FileType::Directory});
  Node->Dir->list(Entries, Ctx.Cost);
  Node->A.Atime = Ctx.Now;
  ++Ctx.Cost.InodesTouched;
  return Entries;
}

//===----------------------------------------------------------------------===//
// Extended attributes
//===----------------------------------------------------------------------===//

FsError LocalFileSystem::setxattr(OpCtx &Ctx, const std::string &Path,
                                  const std::string &Key,
                                  const std::string &Value) {
  Result<InodeNum> R = resolveExisting(Ctx, Path, /*FollowLast=*/true);
  if (!R.ok())
    return R.error();
  Inode *Node = getInode(*R);
  if (!checkAccess(Ctx.Creds, *Node, Access::Write))
    return FsError::Access;
  Node->extra().XAttrs[Key] = Value;
  Node->A.Ctime = Ctx.Now;
  ++Ctx.Cost.InodesTouched;
  return FsError::Ok;
}

Result<std::string> LocalFileSystem::getxattr(OpCtx &Ctx,
                                              const std::string &Path,
                                              const std::string &Key) {
  Result<InodeNum> R = resolveExisting(Ctx, Path, /*FollowLast=*/true);
  if (!R.ok())
    return R.error();
  Inode *Node = getInode(*R);
  if (!checkAccess(Ctx.Creds, *Node, Access::Read))
    return FsError::Access;
  if (!Node->Extra)
    return FsError::NoAttr;
  auto It = Node->Extra->XAttrs.find(Key);
  if (It == Node->Extra->XAttrs.end())
    return FsError::NoAttr;
  ++Ctx.Cost.InodesTouched;
  return It->second;
}

Result<std::vector<std::string>>
LocalFileSystem::listxattr(OpCtx &Ctx, const std::string &Path) {
  Result<InodeNum> R = resolveExisting(Ctx, Path, /*FollowLast=*/true);
  if (!R.ok())
    return R.error();
  Inode *Node = getInode(*R);
  if (!checkAccess(Ctx.Creds, *Node, Access::Read))
    return FsError::Access;
  std::vector<std::string> Keys;
  if (Node->Extra)
    for (const auto &KV : Node->Extra->XAttrs)
      Keys.push_back(KV.first);
  ++Ctx.Cost.InodesTouched;
  return Keys;
}

FsError LocalFileSystem::removexattr(OpCtx &Ctx, const std::string &Path,
                                     const std::string &Key) {
  Result<InodeNum> R = resolveExisting(Ctx, Path, /*FollowLast=*/true);
  if (!R.ok())
    return R.error();
  Inode *Node = getInode(*R);
  if (!checkAccess(Ctx.Creds, *Node, Access::Write))
    return FsError::Access;
  if (!Node->Extra || Node->Extra->XAttrs.erase(Key) == 0)
    return FsError::NoAttr;
  Node->A.Ctime = Ctx.Now;
  ++Ctx.Cost.InodesTouched;
  return FsError::Ok;
}

//===----------------------------------------------------------------------===//
// Data operations
//===----------------------------------------------------------------------===//

Result<FileHandle> LocalFileSystem::open(OpCtx &Ctx, const std::string &Path,
                                         uint32_t Flags, uint32_t Mode) {
  Result<Resolved> R = resolve(Ctx, Path, /*FollowLast=*/true);
  if (!R.ok())
    return R.error();

  InodeNum Target = R->Target;
  if (Target == 0) {
    if (!(Flags & OpenCreate))
      return FsError::NoEnt;
    if (R->Leaf.empty())
      return FsError::IsDir;
    if (FsError E = checkName(R->Leaf); failed(E))
      return E;
    Inode *Parent = getInode(R->Parent);
    if (!checkAccess(Ctx.Creds, *Parent, Access::Write))
      return FsError::Access;
    Inode *Node = createInode(Ctx, FileType::Regular, Mode);
    if (!Node)
      return FsError::NoSpace;
    Node->A.Nlink = 1;
    Parent->Dir->insert(
        DirEntry{std::string(R->Leaf), Node->A.Ino, FileType::Regular},
        Ctx.Cost);
    Parent->A.Mtime = Parent->A.Ctime = Ctx.Now;
    Target = Node->A.Ino;
  } else {
    if ((Flags & OpenCreate) && (Flags & OpenExcl))
      return FsError::Exists;
    Inode *Node = getInode(Target);
    if (Node->A.Type == FileType::Directory && (Flags & OpenWrite))
      return FsError::IsDir;
    if ((Flags & OpenRead) && !checkAccess(Ctx.Creds, *Node, Access::Read))
      return FsError::Access;
    if ((Flags & OpenWrite) && !checkAccess(Ctx.Creds, *Node, Access::Write))
      return FsError::Access;
    if (Flags & OpenTrunc) {
      reallocate(Ctx, *Node, 0);
      Node->A.Mtime = Node->A.Ctime = Ctx.Now;
    }
  }

  Inode *Node = getInode(Target);
  ++Node->OpenCount;
  FileHandle Fh = NextHandle++;
  OpenFiles.emplace(Fh, OpenFile{Target, Flags, 0});
  ++Ctx.Cost.InodesTouched;
  return Fh;
}

FsError LocalFileSystem::close(OpCtx &Ctx, FileHandle Fh) {
  auto It = OpenFiles.find(Fh);
  if (It == OpenFiles.end())
    return FsError::BadFd;
  InodeNum Ino = It->second.Ino;
  OpenFiles.erase(It);
  Inode *Node = getInode(Ino);
  DMB_ASSERT(Node && Node->OpenCount > 0, "open count underflow");
  --Node->OpenCount;
  // Process termination or close releases the handle's locks (\S 2.3.2).
  if (Node->Extra)
    Node->Extra->ReadLockers.erase(Fh);
  if (Node->WriteLocker == Fh)
    Node->WriteLocker = InvalidHandle;
  ++Ctx.Cost.InodesTouched;
  maybeReap(Ino);
  return FsError::Ok;
}

FsError LocalFileSystem::lockFile(OpCtx &Ctx, FileHandle Fh,
                                  bool Exclusive) {
  auto It = OpenFiles.find(Fh);
  if (It == OpenFiles.end())
    return FsError::BadFd;
  Inode *Node = getInode(It->second.Ino);
  ++Ctx.Cost.InodesTouched;
  if (Exclusive) {
    // A write lock requires no other holder of any kind.
    if (Node->WriteLocker != InvalidHandle && Node->WriteLocker != Fh)
      return FsError::Busy;
    if (Node->Extra) {
      for (FileHandle Reader : Node->Extra->ReadLockers)
        if (Reader != Fh)
          return FsError::Busy;
      Node->Extra->ReadLockers.erase(Fh); // upgrade
    }
    Node->WriteLocker = Fh;
    return FsError::Ok;
  }
  // A read lock is barred only by a foreign write lock.
  if (Node->WriteLocker != InvalidHandle && Node->WriteLocker != Fh)
    return FsError::Busy;
  if (Node->WriteLocker == Fh)
    Node->WriteLocker = InvalidHandle; // downgrade
  Node->extra().ReadLockers.insert(Fh);
  return FsError::Ok;
}

FsError LocalFileSystem::unlockFile(OpCtx &Ctx, FileHandle Fh) {
  auto It = OpenFiles.find(Fh);
  if (It == OpenFiles.end())
    return FsError::BadFd;
  Inode *Node = getInode(It->second.Ino);
  ++Ctx.Cost.InodesTouched;
  if (Node->WriteLocker == Fh) {
    Node->WriteLocker = InvalidHandle;
    return FsError::Ok;
  }
  if (Node->Extra && Node->Extra->ReadLockers.erase(Fh))
    return FsError::Ok;
  return FsError::Invalid;
}

Result<uint64_t> LocalFileSystem::write(OpCtx &Ctx, FileHandle Fh,
                                        uint64_t NumBytes) {
  auto It = OpenFiles.find(Fh);
  if (It == OpenFiles.end())
    return FsError::BadFd;
  OpenFile &Of = It->second;
  if (!(Of.Flags & OpenWrite))
    return FsError::BadFd;
  Inode *Node = getInode(Of.Ino);
  if (Of.Flags & OpenAppend)
    Of.Offset = Node->A.Size; // O_APPEND repositions before each write.
  uint64_t End = Of.Offset + NumBytes;
  if (End > Node->A.Size && !reallocate(Ctx, *Node, End))
    return FsError::NoSpace;
  Of.Offset = End;
  Node->A.Mtime = Node->A.Ctime = Ctx.Now;
  Ctx.Cost.BytesWritten += NumBytes;
  ++Ctx.Cost.InodesTouched;
  return NumBytes;
}

Result<uint64_t> LocalFileSystem::read(OpCtx &Ctx, FileHandle Fh,
                                       uint64_t NumBytes) {
  auto It = OpenFiles.find(Fh);
  if (It == OpenFiles.end())
    return FsError::BadFd;
  OpenFile &Of = It->second;
  if (!(Of.Flags & OpenRead))
    return FsError::BadFd;
  Inode *Node = getInode(Of.Ino);
  uint64_t Avail =
      Node->A.Size > Of.Offset ? Node->A.Size - Of.Offset : 0;
  uint64_t N = NumBytes < Avail ? NumBytes : Avail;
  Of.Offset += N;
  Node->A.Atime = Ctx.Now;
  Ctx.Cost.BytesRead += N;
  ++Ctx.Cost.InodesTouched;
  return N;
}

Result<uint64_t> LocalFileSystem::seek(OpCtx &Ctx, FileHandle Fh,
                                       uint64_t Offset) {
  (void)Ctx;
  auto It = OpenFiles.find(Fh);
  if (It == OpenFiles.end())
    return FsError::BadFd;
  It->second.Offset = Offset;
  return Offset;
}

FsError LocalFileSystem::ftruncate(OpCtx &Ctx, FileHandle Fh,
                                   uint64_t Length) {
  auto It = OpenFiles.find(Fh);
  if (It == OpenFiles.end())
    return FsError::BadFd;
  if (!(It->second.Flags & OpenWrite))
    return FsError::BadFd;
  Inode *Node = getInode(It->second.Ino);
  if (!reallocate(Ctx, *Node, Length))
    return FsError::NoSpace;
  Node->A.Mtime = Node->A.Ctime = Ctx.Now;
  ++Ctx.Cost.InodesTouched;
  return FsError::Ok;
}

Result<Attr> LocalFileSystem::fstat(OpCtx &Ctx, FileHandle Fh) {
  auto It = OpenFiles.find(Fh);
  if (It == OpenFiles.end())
    return FsError::BadFd;
  ++Ctx.Cost.InodesTouched;
  return getInode(It->second.Ino)->A;
}

LocalFileSystem::FsckReport LocalFileSystem::fsck() const {
  FsckReport Report;
  auto Error = [&Report](std::string Msg) {
    Report.Errors.push_back(std::move(Msg));
  };

  // Walk the tree from the root, counting how often each inode is
  // referenced by a directory entry.
  std::map<InodeNum, uint32_t> RefCount;
  std::map<InodeNum, uint32_t> SubdirCount;
  std::map<InodeNum, InodeNum> SeenParent;
  std::set<InodeNum> Visited;
  std::deque<InodeNum> Work;
  Work.push_back(RootIno);
  Visited.insert(RootIno);
  SeenParent[RootIno] = RootIno;

  while (!Work.empty()) {
    InodeNum DirIno = Work.front();
    Work.pop_front();
    const Inode *DirPtr = getInode(DirIno);
    if (!DirPtr) {
      Error(format("directory inode %llu vanished during walk",
                   (unsigned long long)DirIno));
      continue;
    }
    const Inode &Dir = *DirPtr;
    ++Report.DirectoriesChecked;

    std::vector<DirEntry> Entries;
    OpCost Cost;
    Dir.Dir->list(Entries, Cost);
    for (const DirEntry &E : Entries) {
      const Inode *ChildPtr = getInode(E.Ino);
      if (!ChildPtr) {
        Error(format("entry '%s' in dir %llu references missing inode "
                     "%llu",
                     E.Name.c_str(), (unsigned long long)DirIno,
                     (unsigned long long)E.Ino));
        continue;
      }
      const Inode &Child = *ChildPtr;
      if (Child.A.Type != E.Type)
        Error(format("entry '%s' type mismatch for inode %llu",
                     E.Name.c_str(), (unsigned long long)E.Ino));
      ++RefCount[E.Ino];
      if (Child.A.Type == FileType::Directory) {
        ++SubdirCount[DirIno];
        if (!Visited.insert(E.Ino).second) {
          Error(format("directory inode %llu reachable via multiple "
                       "paths (cycle or hardlinked directory)",
                       (unsigned long long)E.Ino));
          continue;
        }
        SeenParent[E.Ino] = DirIno;
        Work.push_back(E.Ino);
      } else {
        Visited.insert(E.Ino);
      }
    }
  }

  // Per-inode invariants, in inode-number order: the table is indexed by
  // inode number, and fsck messages are part of replay-compared output.
  uint64_t BlockSum = 0;
  for (const std::unique_ptr<Inode> &Slot : Inodes) {
    if (!Slot)
      continue;
    const Inode &Node = *Slot;
    InodeNum Ino = Node.A.Ino;
    ++Report.InodesChecked;
    BlockSum += Node.A.Blocks;

    if (!Visited.count(Ino)) {
      // Unreferenced inodes are legitimate only while an open handle
      // defers deletion (\S 2.3.1).
      if (!(Node.A.Nlink == 0 && Node.OpenCount > 0))
        Error(format("orphan inode %llu (nlink=%u, open=%u)",
                     (unsigned long long)Ino, Node.A.Nlink,
                     Node.OpenCount));
      continue;
    }

    if (Node.A.Type == FileType::Directory) {
      uint32_t Expected = 2 + SubdirCount[Ino];
      if (Node.A.Nlink != Expected)
        Error(format("dir inode %llu nlink=%u, expected %u",
                     (unsigned long long)Ino, Node.A.Nlink, Expected));
      auto ParentIt = SeenParent.find(Ino);
      if (ParentIt != SeenParent.end() && Node.Parent != ParentIt->second)
        Error(format("dir inode %llu dot-dot points to %llu, expected "
                     "%llu",
                     (unsigned long long)Ino,
                     (unsigned long long)Node.Parent,
                     (unsigned long long)ParentIt->second));
    } else {
      uint32_t Refs = RefCount.count(Ino) ? RefCount[Ino] : 0;
      if (Node.A.Nlink != Refs)
        Error(format("inode %llu nlink=%u but %u directory entries",
                     (unsigned long long)Ino, Node.A.Nlink, Refs));
    }
  }

  if (BlockSum != AllocatedBlocks)
    Error(format("block accounting: inodes hold %llu blocks, allocator "
                 "says %llu",
                 (unsigned long long)BlockSum,
                 (unsigned long long)AllocatedBlocks));
  return Report;
}

uint64_t LocalFileSystem::directorySize(const std::string &Path) {
  OpCtx Ctx;
  Ctx.Creds.Uid = 0;
  Ctx.Creds.Gid = 0;
  Result<InodeNum> R = resolveExisting(Ctx, Path, /*FollowLast=*/true);
  if (!R.ok())
    return 0;
  Inode *Node = getInode(*R);
  if (Node->A.Type != FileType::Directory)
    return 0;
  return Node->Dir->size();
}
